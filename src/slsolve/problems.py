"""Built-in eigenvalue problems, reference values, and config ingestion.

A problem declares a ``DEProfile`` (with the DE map's scale kappa) and an
``SEProfile``, or one of them; Bessel references are squared jn_zeros.

A config's q and rho are compiled by recursive descent from this grammar
(| separates alternatives, * is repetition):

    expr    :=  term  (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor  |  power
    power   :=  atom ('^' factor)?          # right-associative
    atom    :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names are the variable ``x``, a declared parameter, or one of the fixed
functions sin, cos, tan, tanh, sinh, cosh, sech, exp, log, sqrt,
arcsinh, abs.  ``-x^2`` is rejected as ambiguous: write ``(-x)^2`` or
``-(x^2)``.

Each production returns the numpy function of x it denotes, so one pass
over the tokens, with the parameters bound, yields the compiled
expression; one call then evaluates a scalar or a whole array of x.  A
syntax error, or a name that is neither x nor a given parameter, raises
ExpressionError with its line and column.  Arithmetic follows numpy:
where an expression is undefined the result is NaN or inf, not an
exception.
"""

import inspect
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np
import scipy.special

from .meshing import DEProfile, SEProfile, TransformedProblem, map_catalog, transform_problem


class ConfigError(ValueError):
    """A problem configuration could not be loaded."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """A problem -u'' + q u = lambda rho u with its transformation data.

    ``interval_kind`` ("unit", "half_line" or "real_line") picks the
    problem's SE map from ``meshing.map_catalog``; its DE map is that map
    after kappa sinh(t), with the ``de_profile``'s kappa.  A profile of
    the wrong type, or one the catalog has no map for, raises ValueError
    at construction.  A method is available exactly when its decay
    profile is declared.

    ``q`` and ``rho`` are called with a numpy array of x, all points of a
    mesh at once (in a convergence study, those of one half of its levels
    at once), and must return an array of its shape or a constant.
    ``transformed`` samples rho on an array, so a scalar-only rho raises
    its own error there; a scalar-only q raises at the first assembly.
    Decay profiles are declared per problem rather than derived: they
    come from asymptotic analysis of the transformed solution, which is
    not automated here.  ``reference`` maps a 1-based eigenvalue index to
    its known exact value, or is None when no closed form exists.
    """

    name: str
    interval_kind: str
    q: Callable
    rho: Callable
    de_profile: Optional[DEProfile] = None
    se_profile: Optional[SEProfile] = None
    reference: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        for kind, profile, expected in (("DE", self.de_profile, DEProfile),
                                        ("SE", self.se_profile, SEProfile)):
            if profile is None:
                continue
            if not isinstance(profile, expected):
                raise ValueError(f"{kind.lower()}_profile must be of type {expected.__name__}, "
                                 f"got {type(profile).__name__}")
            map_catalog(self.interval_kind, kind, profile.kappa if kind == "DE" else 1.0)


def reference_eigenvalue(problem: SturmLiouvilleProblem, index: int) -> Optional[float]:
    """Known exact eigenvalue for 1-based ``index``, or None if unavailable."""
    if index < 1:
        raise ValueError(f"eigenvalue index must be >= 1, got {index!r}")
    if problem.reference is None:
        return None
    return problem.reference(index)


def _bessel(n: int = 7) -> SturmLiouvilleProblem:
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"Bessel order must be an integer >= 1, got {n!r}")
    n = int(n)
    coeff = (4.0 * n * n - 1.0) / 4.0
    return SturmLiouvilleProblem(
        name="bessel",
        interval_kind="unit",
        q=lambda x: coeff / (x * x),
        rho=lambda x: 1.0,
        # Transformed tails: exp(-n e^|t|) on the left, exp(-e^t / 2) on the right.
        de_profile=DEProfile(beta_left=float(n), beta_right=0.5,
                             gamma_left=1.0, gamma_right=1.0, d=math.pi / 2.0),
        # Single-exponential rate 1 is the binding (right) tail; the map's
        # poles sit at +-i pi/2.
        se_profile=SEProfile(alpha=1.0, rho_decay=1.0, d=math.pi / 2.0),
        reference=lambda i: float(scipy.special.jn_zeros(n, i)[i - 1]) ** 2,
    )


def _laguerre(alpha: float = 3.0) -> SturmLiouvilleProblem:
    if not 0.5 < alpha < math.inf:
        raise ValueError(f"Laguerre parameter must be finite and exceed 1/2, got alpha={alpha!r}")
    alpha = float(alpha)
    return SturmLiouvilleProblem(
        name="laguerre",
        interval_kind="half_line",
        q=lambda x: (alpha * alpha - 0.25) / (x * x) - (alpha + 1.0) / 2.0 + x * x / 16.0,
        rho=lambda x: 1.0,
        # Tails exp(-(alpha/2) e^|t|) left and exp(-e^(2t)/32) right.
        de_profile=DEProfile(beta_left=alpha / 2.0, beta_right=1.0 / 32.0,
                             gamma_left=1.0, gamma_right=2.0, d=math.pi / 4.0),
        se_profile=SEProfile(alpha=1.0, rho_decay=1.0, d=math.pi / 2.0),
        # Eigenvalues 0, 1, 2, ... independent of alpha.
        reference=lambda i: float(i - 1),
    )


_ADAPTED_KAPPA = math.sqrt(0.2)


def _singular(kappa: float = _ADAPTED_KAPPA) -> SturmLiouvilleProblem:
    """Whole-line problem whose coefficients have complex singularities.

    q has poles at +-i sqrt(0.1) (and further up), so the strip width of
    the kappa-scaled sinh map is arcsin(sqrt(0.1)/kappa) from those poles,
    capped at pi/4 by the decay constraint; kappa = sqrt(0.2) realizes the
    cap exactly, which is why it is the default.
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError(f"map scale must lie in (0, 1], got kappa={kappa!r}")
    kappa = float(kappa)
    ratio = min(math.sqrt(0.1) / kappa, 1.0)
    d_de = min(math.pi / 4.0, math.asin(ratio))
    return SturmLiouvilleProblem(
        name="singular" if kappa == 1.0 else "singular-adapted",
        interval_kind="real_line",
        q=lambda x: x * x + np.tanh(x) / np.log(x * x + 1.1),
        rho=lambda x: 1.0 / (x * x + np.cos(x)),
        # Both tails exp(-(kappa^2/8) e^(2|t|)) under the kappa sinh(t) map.
        de_profile=DEProfile(beta_left=kappa * kappa / 8.0, beta_right=kappa * kappa / 8.0,
                             gamma_left=2.0, gamma_right=2.0, d=d_de, kappa=kappa),
        # Untransformed solution ~ exp(-t^2/2); nearest singularity +-i sqrt(0.1).
        se_profile=SEProfile(alpha=0.5, rho_decay=2.0, d=math.sqrt(0.1)),
        reference=None,
    )


_BUILTINS = {"bessel": _bessel, "laguerre": _laguerre, "singular": _singular}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, **params) -> SturmLiouvilleProblem:
    """Construct a catalog problem: bessel(n), laguerre(alpha), singular(kappa)."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin problem {name!r}; expected one of {sorted(_BUILTINS)}")
    unknown = set(params) - inspect.signature(_BUILTINS[name]).parameters.keys()
    if unknown:
        raise ValueError(f"problem {name!r} does not take parameters {sorted(unknown)}")
    return _BUILTINS[name](**params)


def transformed(problem: SturmLiouvilleProblem, method: str) -> TransformedProblem:
    """The problem under its SE or DE map, ready for assembly.

    The map follows from ``problem.interval_kind`` and, for "de", the DE
    profile's kappa; a method without a declared profile is a ConfigError.
    """
    if method not in ("se", "de"):
        raise ValueError(f"unknown method {method!r}; expected 'se' or 'de'")
    profile = problem.de_profile if method == "de" else problem.se_profile
    if profile is None:
        raise ConfigError(f"problem {problem.name!r} declares no {method} transformation data")
    kappa = profile.kappa if method == "de" else 1.0
    jet = map_catalog(problem.interval_kind, method.upper(), kappa)
    return transform_problem(jet, problem.q, problem.rho)


FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sech": lambda v: 1.0 / np.cosh(v),
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "arcsinh": np.arcsinh,
    "abs": np.abs,
}

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}


class ExpressionError(ValueError):
    """Syntax or name error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExpressionError(f"unexpected character {stripped[0]!r}", line, col)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _constant(value):
    return lambda x: value


def _binary(symbol, left, right):
    op = _OPERATORS[symbol]
    return lambda x: op(left(x), right(x))


class _Parser:
    def __init__(self, tokens, line, params):
        self.tokens = tokens
        self.line = line
        self.params = params
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, column=None):
        raise ExpressionError(message, self.line, column or self.peek()[2])

    def expect_op(self, op):
        if self.peek()[:2] != ("op", op):
            self.fail(f"expected {op!r}")
        self.next()

    def expr(self):
        f = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            f = _binary(self.next()[1], f, self.term())
        return f

    def term(self):
        f = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            f = _binary(self.next()[1], f, self.factor())
        return f

    def factor(self):
        if self.peek()[:2] != ("op", "-"):
            return self.power()
        self.next()
        operand = self.factor() if self.peek()[:2] == ("op", "-") else self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.fail("ambiguous '-' before '^': write (-x)^2 or -(x^2)")
        return lambda x: -operand(x)

    def power(self):
        f = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            f = _binary("^", f, self.factor())
        return f

    def atom(self):
        kind, value, col = self.next()
        if kind == "num":
            return _constant(np.float64(float(value)))
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    self.fail(f"unknown function {value!r}", col)
                self.next()
                func, arg = FUNCTIONS[value], self.expr()
                self.expect_op(")")
                return lambda x: func(arg(x))
            if value == "x":
                return lambda x: x
            if value not in self.params:
                self.fail(f"unknown name {value!r}", col)
            return _constant(self.params[value])
        if (kind, value) == ("op", "("):
            f = self.expr()
            self.expect_op(")")
            return f
        self.fail(f"expected a number, name, or '(', got {value!r}" if value
                  else "unexpected end of expression", col)


def parse_expression(text: str, params: Optional[Mapping[str, float]] = None,
                     line: int = 1) -> Callable:
    """Compile one expression into a function of x evaluated with numpy.

    ``params`` maps parameter names to values, bound now: a name that is
    neither x nor a parameter raises ExpressionError here, at its column,
    rather than at evaluation.  ``line`` seeds error locations.  The
    function takes a scalar or a numpy array of x.
    """
    values = {name: np.float64(value) for name, value in (params or {}).items()}
    parser = _Parser(_tokenize(text, line), line, values)
    body = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail(f"unexpected trailing input {parser.peek()[1]!r}")
    return lambda x: body(np.asarray(x, dtype=float))


_INTERVALS = {"unit": "unit", "halfline": "half_line", "realline": "real_line"}
# The config key of each decay constant, by its profile field.
_DE_KEYS = {"beta_left": "beta_l", "beta_right": "beta_r",
            "gamma_left": "gamma_l", "gamma_right": "gamma_r"}
_SE_KEYS = {"alpha": "alpha_se", "rho_decay": "rho_decay_se"}
_SCALAR_KEYS = ("kappa", "d", *_DE_KEYS.values(), *_SE_KEYS.values())


def parse_problem_config(text: str) -> SturmLiouvilleProblem:
    """Load a problem from the line-oriented ``key = value`` format.

    Recognized keys: name, interval (unit|halfline|realline), q, rho,
    map (se|de), kappa, d, beta_l, beta_r, gamma_l, gamma_r, alpha_se,
    rho_decay_se, and ``param <name> = <value>`` declarations usable
    inside the q/rho expressions.  Each key and each param name may be
    given once; a repeat is a ConfigError naming both lines.  ``#``
    starts a comment.
    ``kappa`` scales the DE map, so it needs all four DE decay constants.
    q and rho are compiled after every line is read, so a param may follow
    its first use; a syntax error or an undeclared name in either is a
    ConfigError "expression 'q': ..." with the line and column.
    """
    fields = {}
    exprs = {}
    params = {}
    first_line = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not value:
            raise ConfigError(f"missing value for {key!r}", line=lineno)
        if key.startswith("param "):
            pname = key[len("param "):].strip()
            if not pname.isidentifier() or pname == "x":
                raise ConfigError(f"invalid parameter name {pname!r}", line=lineno)
            key = "param " + pname
        if key in first_line:
            raise ConfigError(f"repeated key {key!r}, first set on line {first_line[key]}",
                              line=lineno)
        first_line[key] = lineno
        if key.startswith("param "):
            params[pname] = _scalar(value, key, lineno)
            if not math.isfinite(params[pname]):
                raise ConfigError(f"value for {key!r} must be finite, got {value!r}", line=lineno)
        elif key in ("q", "rho"):
            exprs[key] = (value, lineno)
        elif key in _SCALAR_KEYS:
            fields[key] = _scalar(value, key, lineno)
        elif key in ("name", "interval", "map"):
            fields[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)

    # Parsed only now, so a param may be declared after its first use.
    compiled = {}
    for key, (value, lineno) in exprs.items():
        try:
            compiled[key] = parse_expression(value, params, line=lineno)
        except ExpressionError as exc:
            raise ConfigError(f"expression {key!r}: {exc}") from None

    for mandatory in ("interval", "q", "rho", "map"):
        if mandatory not in fields and mandatory not in exprs:
            raise ConfigError(f"missing mandatory field {mandatory!r}")
    interval = fields["interval"]
    if interval not in _INTERVALS:
        raise ConfigError(f"interval must be one of {sorted(_INTERVALS)}, got {interval!r}")
    interval_kind = _INTERVALS[interval]
    declared_map = fields["map"]
    if declared_map not in ("se", "de"):
        raise ConfigError(f"map must be 'se' or 'de', got {declared_map!r}")
    if "d" not in fields:
        raise ConfigError("missing mandatory field 'd'")

    missing_de = [k for k in _DE_KEYS.values() if k not in fields]
    have_de = not missing_de
    have_se = all(k in fields for k in _SE_KEYS.values())
    if declared_map == "de" and not have_de:
        raise ConfigError(f"map = de requires decay constants {missing_de}")
    if declared_map == "se" and not have_se:
        raise ConfigError("map = se requires alpha_se and rho_decay_se")
    if "kappa" in fields and not have_de:
        raise ConfigError(f"kappa scales only the DE map, which requires decay constants {missing_de}")

    try:
        de_profile = DEProfile(
            **{name: fields[key] for name, key in _DE_KEYS.items()},
            d=fields["d"], kappa=fields.get("kappa", 1.0),
        ) if have_de else None
        se_profile = SEProfile(
            **{name: fields[key] for name, key in _SE_KEYS.items()}, d=fields["d"],
        ) if have_se else None
        return SturmLiouvilleProblem(
            name=fields.get("name", "custom"),
            interval_kind=interval_kind,
            q=compiled["q"],
            rho=compiled["rho"],
            de_profile=de_profile,
            se_profile=se_profile,
            reference=None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scalar(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"value for {key!r} must be a number, got {value!r}", line=lineno) from None
