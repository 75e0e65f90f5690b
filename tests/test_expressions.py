import math

import numpy as np
import pytest

from slsolve import ExpressionError, parse_expression


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
