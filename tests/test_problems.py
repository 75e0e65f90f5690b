import math

import numpy as np
import pytest

from slsolve import (ConfigError, DEProfile, ExpressionError, SEProfile, SturmLiouvilleProblem,
                     assemble, builtin, de_mesh, parse_expression, parse_problem_config,
                     reference_eigenvalue, solve_generalized, transformed)


def bessel_series(n, x, terms=80):
    # ascending series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)
    out = []
    term = (x / 2.0) ** n / math.factorial(n)
    for k in range(terms):
        out.append(term)
        term *= -(x / 2.0) ** 2 / ((k + 1) * (n + k + 1))
    return math.fsum(out)


def bisect_zero(n, lo, hi, tol=1e-14):
    f = lambda x: bessel_series(n, x)
    flo = f(lo)
    assert flo * f(hi) < 0.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bessel_zero(n, m):
    """The m-th zero of J_n, from the builtin's reference eigenvalue."""
    return math.sqrt(reference_eigenvalue(builtin("bessel", n=n), m))


def test_bessel_zero_against_series_bisection():
    oracle_11 = bisect_zero(1, 3.0, 4.5)
    assert oracle_11 == pytest.approx(3.8317059702075123, rel=1e-12)
    assert bessel_zero(1, 1) == pytest.approx(oracle_11, rel=1e-12)

    oracle_71 = bisect_zero(7, 10.5, 11.5)
    assert oracle_71 == pytest.approx(11.086370019245084, rel=1e-12)
    assert bessel_zero(7, 1) == pytest.approx(oracle_71, rel=1e-12)


def test_bessel_zeros_increase():
    zeros = [bessel_zero(7, m) for m in range(1, 6)]
    assert all(b > a for a, b in zip(zeros, zeros[1:]))


def test_builtin_bessel_coefficients():
    p = builtin("bessel", n=7)
    # Liouville-form coefficient (4 n^2 - 1) / (4 x^2): the factor 4 in the
    # denominator is what makes the spectrum the squared Bessel zeros.
    assert p.q(1.0) == pytest.approx(48.75, abs=1e-15)
    assert p.q(0.5) == pytest.approx(195.0, abs=1e-13)
    assert p.rho(0.3) == 1.0
    assert p.de_profile.beta_left == 7.0
    assert p.de_profile.beta_right == 0.5
    assert p.de_profile.d == pytest.approx(math.pi / 2.0)


def test_builtin_laguerre_coefficients():
    p = builtin("laguerre", alpha=3.0)
    assert p.q(2.0) == pytest.approx(0.4375, abs=1e-15)
    assert p.de_profile.gamma_right == 2.0
    assert p.de_profile.beta_right == pytest.approx(1.0 / 32.0)
    assert p.de_profile.d == pytest.approx(math.pi / 4.0)


def test_builtin_singular_coefficients():
    p = builtin("singular")
    assert p.rho(0.0) == 1.0
    assert p.de_profile.kappa == pytest.approx(math.sqrt(0.2))
    assert p.de_profile.d == pytest.approx(math.pi / 4.0)
    assert p.de_profile.beta_left == pytest.approx(0.2 / 8.0)
    plain = builtin("singular", kappa=1.0)
    assert plain.name == "singular"
    assert plain.de_profile.kappa == 1.0
    assert plain.de_profile.d == pytest.approx(math.asin(math.sqrt(0.1)))
    assert p.name == "singular-adapted"


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        builtin("bessel", n=0)
    with pytest.raises(ValueError):
        builtin("laguerre", alpha=0.5)
    with pytest.raises(ValueError):
        builtin("singular", kappa=1.5)
    with pytest.raises(ValueError):
        builtin("airy")
    with pytest.raises(ValueError, match=r"problem 'bessel' does not take parameters \['alpha'\]"):
        builtin("bessel", alpha=1.0)


def _problem(interval_kind, **profiles):
    return SturmLiouvilleProblem(name="p", interval_kind=interval_kind, q=lambda x: 0.0,
                                 rho=lambda x: 1.0, **profiles)


def _de(kappa=1.0):
    return DEProfile(beta_left=1.0, beta_right=1.0, gamma_left=1.0, gamma_right=1.0, d=1.0,
                     kappa=kappa)


SE = SEProfile(alpha=1.0, rho_decay=1.0, d=1.0)


def test_de_profile_needs_a_catalog_map():
    for interval_kind, kappa, message in (("unit", 0.5, "kappa"), ("half_line", 2.0, "kappa"),
                                          ("real_line", 0.0, "kappa"),
                                          ("circle", 1.0, "interval kind")):
        with pytest.raises(ValueError, match=message):
            _problem(interval_kind, de_profile=_de(kappa))
    assert _problem("real_line", de_profile=_de(0.5)).de_profile.kappa == 0.5


def test_every_declared_profile_needs_its_type_and_a_catalog_map():
    with pytest.raises(ValueError, match="interval kind"):
        _problem("circle", se_profile=SE)
    with pytest.raises(ValueError, match="de_profile must be of type DEProfile, got SEProfile"):
        _problem("unit", de_profile=SE)
    with pytest.raises(ValueError, match="se_profile must be of type SEProfile, got DEProfile"):
        _problem("unit", se_profile=_de())
    assert _problem("unit", se_profile=SE).de_profile is None


def test_reference_eigenvalues():
    assert reference_eigenvalue(builtin("laguerre", alpha=3.0), 1) == 0.0
    assert reference_eigenvalue(builtin("laguerre", alpha=6.0), 4) == 3.0
    bessel7 = builtin("bessel", n=7)
    assert reference_eigenvalue(bessel7, 1) == pytest.approx(122.9076002036162, abs=1e-10)
    assert reference_eigenvalue(builtin("singular"), 1) is None
    with pytest.raises(ValueError):
        reference_eigenvalue(bessel7, 0)


@pytest.mark.parametrize("order", [1, 7])
def test_bessel_pipeline_consistent_with_zero_finder(order):
    problem = builtin("bessel", n=order)
    tp = transformed(problem, "de")
    mesh = de_mesh(problem.de_profile, 16)
    mu1 = solve_generalized(assemble(tp, mesh)).eigenvalues[0]
    assert abs(mu1 - bessel_zero(order, 1) ** 2) <= 1e-9


@pytest.mark.parametrize("alpha", [1.0, 3.0, 6.0])
def test_laguerre_spectrum_independent_of_alpha(alpha):
    problem = builtin("laguerre", alpha=alpha)
    tp = transformed(problem, "de")
    mesh = de_mesh(problem.de_profile, 35)
    mu = solve_generalized(assemble(tp, mesh)).eigenvalues[:5]
    np.testing.assert_allclose(mu, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-8)


def test_laguerre_transformed_closed_form():
    alpha = 3.0
    problem = builtin("laguerre", alpha=alpha)
    qtilde = transformed(problem, "de").qtilde

    def reference(t):
        s, c = math.sinh(t), math.cosh(t)
        u = math.tanh(s)
        x = math.asinh(math.exp(s)) if s < 30 else s + math.log(2.0)
        curvature = (-3.0 * c * c / 16.0 * (u + 1.0 / 3.0) ** 2 + c * c / 3.0
                     + 0.25 - 0.75 / math.cosh(t) ** 2)
        qpart = ((alpha * alpha - 0.25) / (x * x) - (alpha + 1.0) / 2.0 + x * x / 16.0)
        return curvature + qpart * c * c / (1.0 + math.exp(-2.0 * s))

    t = np.linspace(-2.0, 2.0, 100)
    ref = [reference(ti) for ti in t.tolist()]
    assert qtilde(t) == pytest.approx(ref, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("name,params", [
    ("bessel", {"n": 7}),
    ("laguerre", {"alpha": 3.0}),
    ("singular", {}),
])
@pytest.mark.parametrize("n", [5, 9, 14])
def test_builtin_spectra_real_positive_pre_plateau(name, params, n):
    problem = builtin(name, **params)
    mesh = de_mesh(problem.de_profile, n)
    spectrum = solve_generalized(assemble(transformed(problem, "de"), mesh))
    assert spectrum.eigenvalues.dtype.kind == "f"
    if name == "laguerre":
        # smallest eigenvalue is exactly 0, so approximants straddle it;
        # the transformed potential also dips negative, so the discrete
        # operator is not positive definite at coarse meshes
        assert spectrum.eigenvalues[0] > -0.05
    else:
        assert spectrum.eigenvalues[0] > 0.0


CONFIG_BESSEL = """
# transcription of the order-7 unit-interval problem
name = bessel-from-config
interval = unit
map = de
param n = 7
q = (4*n^2-1)/(4*x^2)
rho = 1
d = 1.5707963267948966
beta_l = 7
beta_r = 0.5
gamma_l = 1
gamma_r = 1
"""


def test_config_reproduces_builtin_eigenvalues():
    custom = parse_problem_config(CONFIG_BESSEL)
    assert custom.name == "bessel-from-config"
    native = builtin("bessel", n=7)
    mesh = de_mesh(native.de_profile, 8)
    mu_native = solve_generalized(assemble(transformed(native, "de"), mesh)).eigenvalues
    mesh_custom = de_mesh(custom.de_profile, 8)
    assert mesh_custom == mesh
    mu_custom = solve_generalized(assemble(transformed(custom, "de"), mesh_custom)).eigenvalues
    np.testing.assert_allclose(mu_custom[:5], mu_native[:5], rtol=1e-12)


def test_config_expression_errors_carry_line():
    bad = CONFIG_BESSEL.replace("q = (4*n^2-1)/(4*x^2)", "q = (4*n^2-1)/(4*x^2))")
    lineno = 1 + next(i for i, line in enumerate(bad.splitlines()) if line.startswith("q ="))
    with pytest.raises(ConfigError, match=f"line {lineno}"):
        parse_problem_config(bad)
    with pytest.raises(ConfigError) as info:
        parse_problem_config("interval = unit\nmap = de\nq = log(\nrho = 1\nd = 1\n")
    message = str(info.value)
    assert message.startswith("expression 'q': ")
    assert message.endswith("(line 3, column 5)") and message.count("line 3") == 1


@pytest.mark.parametrize("old,new,message", [
    ("gamma_r = 1\n", "gamma_r = 1\nkappa 0.5\n",
     "expected 'key = value', got 'kappa 0.5' (line 14)"),
    ("gamma_r = 1\n", "gamma_r = 1\nkappa =\n", "missing value for 'kappa' (line 14)"),
    ("param n = 7", "param 2n = 7", "invalid parameter name '2n' (line 6)"),
    ("gamma_r = 1\n", "gamma_r = 1\ncolour = red\n", "unknown key 'colour' (line 14)"),
    ("interval = unit", "interval = circle",
     "interval must be one of ['halfline', 'realline', 'unit'], got 'circle'"),
    ("map = de", "map = xe", "map must be 'se' or 'de', got 'xe'"),
    ("d = 1.5707963267948966\n", "", "missing mandatory field 'd'"),
    ("map = de", "map = se", "map = se requires alpha_se and rho_decay_se"),
    ("d = 1.5707963267948966", "d = wide", "value for 'd' must be a number, got 'wide' (line 9)"),
    ("gamma_r = 1\n", "gamma_r = 1\nkappa = -1\n", "DE profile needs positive kappa, got -1.0"),
    ("param n = 7", "param n = nan", "value for 'param n' must be finite, got 'nan' (line 6)"),
    ("param n = 7", "param n = -inf", "value for 'param n' must be finite, got '-inf' (line 6)"),
    ("param n = 7", "param n = 1e400", "value for 'param n' must be finite, got '1e400' (line 6)"),
], ids=["no-equals", "no-value", "param-name", "unknown-key", "interval", "map", "no-d",
        "se-constants", "number", "kappa", "param-nan", "param-inf", "param-overflow"])
def test_config_refusals(old, new, message):
    assert old in CONFIG_BESSEL
    with pytest.raises(ConfigError) as info:
        parse_problem_config(CONFIG_BESSEL.replace(old, new))
    assert str(info.value) == message


def test_config_missing_mandatory_field():
    bad = "\n".join(line for line in CONFIG_BESSEL.splitlines() if not line.startswith("rho"))
    with pytest.raises(ConfigError, match="rho"):
        parse_problem_config(bad)


def test_config_missing_decay_constants():
    bad = "\n".join(line for line in CONFIG_BESSEL.splitlines() if not line.startswith("beta_r"))
    with pytest.raises(ConfigError, match="beta_r"):
        parse_problem_config(bad)


def test_config_nonpositive_decay_constant():
    bad = CONFIG_BESSEL.replace("gamma_l = 1", "gamma_l = -1")
    with pytest.raises(ConfigError, match="gamma_left"):
        parse_problem_config(bad)


def test_config_undeclared_name_in_expression():
    bad = CONFIG_BESSEL.replace("param n = 7", "param m = 7")
    with pytest.raises(ConfigError, match=r"expression 'q': unknown name 'n' \(line 7, column 4\)"):
        parse_problem_config(bad)


def test_config_param_may_follow_its_use():
    text = ("interval = realline\nmap = se\nq = a/x^2\nrho = 1\nd = 0.5\n"
            "alpha_se = 0.5\nrho_decay_se = 2\nparam a = 2\n")
    assert parse_problem_config(text).q(2.0) == 0.5


def test_config_kappa_restricted_to_real_line():
    bad = CONFIG_BESSEL + "kappa = 0.5\n"
    with pytest.raises(ConfigError, match="kappa"):
        parse_problem_config(bad)


CONFIG_GAUSSIAN_WELL = """
name = gaussian-well
interval = realline
map = se
q = x^2
rho = 1
d = 0.5
alpha_se = 0.5
rho_decay_se = 2
"""


def test_config_kappa_needs_de_constants():
    # The SE map never reads kappa, so a kappa without the DE constants
    # would otherwise be accepted and ignored, whatever its value.
    with pytest.raises(ConfigError, match="kappa") as info:
        parse_problem_config(CONFIG_GAUSSIAN_WELL + "kappa = -1\n")
    assert "beta_l" in str(info.value)


def test_config_se_problem():
    p = parse_problem_config(CONFIG_GAUSSIAN_WELL)
    assert p.se_profile is not None and p.de_profile is None
    assert p.q(2.0) == 4.0


@pytest.mark.parametrize("key,repeat", [
    ("q", "q = 3"),
    ("rho", "rho = 2"),
    ("d", "d = 0.25"),
    ("name", "name = other"),
    ("interval", "interval = halfline"),
    ("map", "map = de"),
    ("param a", "param  a = 3"),
])
def test_config_refuses_a_repeated_key(key, repeat):
    text = CONFIG_GAUSSIAN_WELL.replace("q = x^2", "q = a*x^2") + "param a = 1\n"
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines, start=1)
                 if line.split("=")[0].split() == key.split())
    with pytest.raises(ConfigError, match=rf"repeated key '{key}', first set on line "
                                          rf"{first} \(line {len(lines) + 1}\)"):
        parse_problem_config(text + repeat + "\n")


# The expression compiler behind config-file q and rho.

def ev(text, x=0.0, **params):
    with np.errstate(all="ignore"):
        return float(parse_expression(text, params)(x))


def test_basic_values():
    assert ev("x^2", x=2.0) == 4.0
    assert ev("2+3*4") == 14.0
    assert ev("tanh(x)/log(x^2+1.1)", x=0.0) == 0.0


def test_precedence_and_associativity():
    assert ev("2-3-4") == -5.0
    assert ev("12/3/2") == 2.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("2*3^2") == 18.0
    assert ev("-x*2", x=3.0) == -6.0
    assert ev("2^-3") == 0.125


def test_unary_minus_power_ambiguity_rejected():
    with pytest.raises(ExpressionError, match="ambiguous"):
        parse_expression("-x^2")
    assert ev("(-x)^2", x=3.0) == 9.0
    assert ev("-(x^2)", x=3.0) == -9.0


def test_functions():
    assert ev("sech(0)") == 1.0
    assert ev("arcsinh(x)", x=math.sinh(2.0)) == pytest.approx(2.0, rel=1e-15)
    assert ev("sqrt(abs(x))", x=-9.0) == 3.0
    assert ev("exp(log(x))", x=5.0) == pytest.approx(5.0, rel=1e-15)


def test_parameters():
    assert ev("(4*n^2-1)/(4*x^2)", x=1.0, n=7.0) == 48.75
    with pytest.raises(ExpressionError, match="unknown name"):
        ev("a+1")


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError, match="unknown function"):
        parse_expression("gamma(x)")


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionError) as info:
        parse_expression("2 + $")
    assert info.value.column == 5
    with pytest.raises(ExpressionError):
        parse_expression("2 +")
    with pytest.raises(ExpressionError):
        parse_expression("(1+2")
    with pytest.raises(ExpressionError):
        parse_expression("1 2")


def test_scientific_notation():
    assert ev("1e-3 + 2.5E2") == pytest.approx(250.001, rel=1e-15)
    assert ev(".5*4") == 2.0


# Each expression against the same formula written directly in numpy; a
# wrong precedence, associativity or function binding changes the values.
ORACLE_CASES = {
    "x^2": lambda x: x**2,
    "2+3*4": lambda x: np.full_like(x, 14.0),
    "tanh(x)/log(x^2+1.1)": lambda x: np.tanh(x) / np.log(x**2 + 1.1),
    "x*x + tanh(x)/log(x*x+1.1)": lambda x: x * x + np.tanh(x) / np.log(x * x + 1.1),
    "(a^2-1/4)/x^2 - (a+1)/2 + x^2/16": lambda x: (3.0**2 - 0.25) / x**2 - (3.0 + 1) / 2 + x**2 / 16,
    "-(x^2) + (-x)^3 - 1/(x-4)": lambda x: -(x**2) + (-x) ** 3 - 1 / (x - 4),
    "2^3^x": lambda x: 2.0 ** (3.0**x),
    "1/(x^2 + cos(x))": lambda x: 1 / (x**2 + np.cos(x)),
    "sqrt(x^2+1) - arcsinh(x)": lambda x: np.sqrt(x**2 + 1) - np.arcsinh(x),
    "x/2/3*4 - 5": lambda x: x / 2 / 3 * 4 - 5,
}


@pytest.mark.parametrize("text", ORACLE_CASES)
def test_parse_matches_numpy_oracle(text):
    xs = np.random.default_rng(0).uniform(-8.0, 8.0, 100)
    with np.errstate(all="ignore"):
        result = parse_expression(text, {"a": 3.0})(xs)
        expected = ORACLE_CASES[text](xs)
    np.testing.assert_allclose(result, expected, rtol=1e-14)


def test_compiled_expression_evaluates_arrays():
    f = parse_expression("(a^2-1/4)/x^2 - (a+1)/2 + x^2/16 + tanh(x)/log(x^2+1.1)", {"a": 2.5})
    xs = np.linspace(-3.0, 3.0, 12)
    values = f(xs)
    assert values.shape == xs.shape
    np.testing.assert_array_equal(values, [f(x) for x in xs.tolist()])


def test_compiled_expression_is_undefined_as_nan_or_inf():
    with np.errstate(all="ignore"):
        values = parse_expression("log(x)", {})(np.array([-1.0, 0.0, 1.0]))
    assert math.isnan(values[0]) and values[1] == -math.inf and values[2] == 0.0
    assert math.isnan(ev("sqrt(x)", x=-4.0))
    assert ev("1/x", x=0.0) == math.inf
    with pytest.raises(ExpressionError, match="unknown name"):
        parse_expression("x + b", {})


def test_trailing_whitespace_is_ignored():
    assert ev("x + 1   ", x=2.0) == 3.0
