"""Recursive-descent compiler for the coefficient expression language.

Grammar (| separates alternatives, * is repetition):

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

import operator
import re
from typing import Callable, Mapping, Optional

import numpy as np

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
