import numpy as np
import pytest

from swarmctrl.errors import ExpressionError
from swarmctrl.expressions import evaluate


def test_arithmetic_and_precedence():
    assert evaluate("1 + 2 * 3") == 7.0
    assert evaluate("(1 + 2) * 3") == 9.0
    assert evaluate("2 ^ 3 ^ 2") == 512.0  # right associative
    assert evaluate("-2 ^ 2") == -4.0  # exponent binds tighter than unary minus


def test_functions_and_constants():
    assert evaluate("sin(pi / 2)") == pytest.approx(1.0)
    assert evaluate("exp(0)") == 1.0
    assert evaluate("sqrt(abs(-9))") == 3.0


def test_vectorized_variables():
    x = np.linspace(0.0, 1.0, 11)
    out = evaluate("1 + 0.3 * cos(pi * x)", x=x)
    np.testing.assert_allclose(out, 1 + 0.3 * np.cos(np.pi * x))


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError):
        evaluate("1 + z")


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        evaluate("foo(1)")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        evaluate("1 + 2 )")


def test_empty_rejected():
    with pytest.raises(ExpressionError):
        evaluate("   ")


@pytest.mark.parametrize(
    "text, expected",
    [("1/0", np.inf), ("0^-1", np.inf), ("-1/0", -np.inf), ("10^400", np.inf), ("(-1)^0.5", np.nan)],
)
def test_scalar_faults_follow_numpy(text, expected):
    # numbers are numpy floats, so scalar arithmetic gives inf or nan as
    # array arithmetic does instead of raising a Python exception
    with np.errstate(all="ignore"):
        np.testing.assert_equal(evaluate(text), expected)


@pytest.mark.parametrize(
    "text", ["(" * 400 + "1" + ")" * 400, "-" * 3000 + "1"], ids=["parentheses", "unary-minus"]
)
def test_deep_nesting_rejected(text):
    # the recursive-descent parser's depth is bounded by Python's stack: an
    # expression nested past it is an ExpressionError, not a RecursionError
    with pytest.raises(ExpressionError, match="nested too deeply"):
        evaluate(text)
