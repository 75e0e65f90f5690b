import math

import numpy as np
import pytest

from slsolve import ExpressionError, parse_expression
from slsolve.expressions import compile_expression, evaluate, free_names, pretty


def ev(text, x=0.0, **params):
    return evaluate(parse_expression(text), x, params)


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


ROUND_TRIP_CASES = [
    "x^2",
    "2+3*4",
    "tanh(x)/log(x^2+1.1)",
    "x*x + tanh(x)/log(x*x+1.1)",
    "(a^2-1/4)/x^2 - (a+1)/2 + x^2/16",
    "-(x^2) + (-x)^3 - 1/(x-4)",
    "2^3^x",
    "1/(x^2 + cos(x))",
    "sqrt(x^2+1) - arcsinh(x)",
    "x/2/3*4 - 5",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_pretty_round_trip(text):
    params = {"a": 3.0}
    node = parse_expression(text)
    rendered = pretty(node)
    reparsed = parse_expression(rendered)
    rng = np.random.default_rng(hash(text) % 2**32)
    checked = 0
    while checked < 100:
        x = float(rng.uniform(-8.0, 8.0))
        try:
            expected = evaluate(node, x, params)
        except (ArithmeticError, ValueError):
            continue
        if not math.isfinite(expected):
            continue
        result = evaluate(reparsed, x, params)
        assert result == pytest.approx(expected, rel=1e-14, abs=1e-300)
        checked += 1


def test_free_names():
    node = parse_expression("(4*n^2-1)/(4*x^2) + sin(b)")
    assert free_names(node) == {"n", "x", "b"}


def test_compiled_expression_evaluates_arrays():
    node = parse_expression("(a^2-1/4)/x^2 - (a+1)/2 + x^2/16 + tanh(x)/log(x^2+1.1)")
    f = compile_expression(node, {"a": 2.5})
    xs = np.linspace(-3.0, 3.0, 12)
    values = f(xs)
    assert values.shape == xs.shape
    np.testing.assert_array_equal(values, [evaluate(node, x, {"a": 2.5}) for x in xs.tolist()])


def test_compiled_expression_is_undefined_as_nan_or_inf():
    with np.errstate(all="ignore"):
        values = compile_expression(parse_expression("log(x)"), {})(np.array([-1.0, 0.0, 1.0]))
    assert math.isnan(values[0]) and values[1] == -math.inf and values[2] == 0.0
    assert math.isnan(ev("sqrt(x)", x=-4.0))
    assert ev("1/x", x=0.0) == math.inf
    with pytest.raises(ExpressionError, match="unknown name"):
        compile_expression(parse_expression("x + b"), {})
