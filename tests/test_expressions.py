import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pseudoherm.expressions import (
    _PREC,
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    EvaluationError,
    ExprSyntaxError,
    Neg,
    Param,
    Pow,
    Var,
    differentiate,
    evaluate,
    free_parameters,
    parse,
    to_source,
)

SCARF_W = "-A*sinh(x)/cosh(x)^2"
PERIODIC_W = "4*sin(2*x)/(3*(cos(x)^2-4/3)^2)"
MORSE_W = "-xi*exp(-x)"


def test_parse_scarf_generator_heads():
    tree = parse(SCARF_W)
    assert isinstance(tree, BinOp)
    assert tree.op == "/"
    assert isinstance(tree.right, Pow)
    assert tree.right.exponent == 2


def test_parse_bare_variable():
    assert parse("x") == Var()


def test_parse_periodic_generator():
    tree = parse(PERIODIC_W)
    assert isinstance(tree, BinOp)
    assert free_parameters(tree) == set()


def test_eval_scarf_at_origin():
    assert evaluate(parse(SCARF_W), 0.0, {"A": 2.0}) == 0.0


def test_eval_morse_at_origin():
    assert evaluate(parse(MORSE_W), 0.0, {"xi": 1.0}) == -1.0


def test_eval_periodic_at_half_pi():
    value = evaluate(parse(PERIODIC_W), np.pi / 2)
    assert abs(value) < 1e-15


def test_eval_vectorized_matches_scalar():
    tree = parse(SCARF_W)
    xs = np.linspace(-3, 3, 17)
    vector = evaluate(tree, xs, {"A": 2.0})
    scalar = np.array([evaluate(tree, float(x), {"A": 2.0}) for x in xs])
    assert_allclose(vector, scalar, rtol=0, atol=0)


def test_differentiate_sinh():
    assert differentiate(parse("sinh(x)")) == Call("cosh", Var())


def test_differentiate_morse_generator():
    derivative = differentiate(parse(MORSE_W))
    xs = np.linspace(-2, 5, 23)
    assert_allclose(
        evaluate(derivative, xs, {"xi": 1.0}), np.exp(-xs), rtol=1e-14, atol=0
    )


@pytest.mark.parametrize(
    "source,env,lo,hi",
    [
        (SCARF_W, {"A": 2.0}, -4.0, 4.0),
        (SCARF_W, {"A": 4.0}, -4.0, 4.0),
        (PERIODIC_W, {}, -3.0, 3.0),
        (MORSE_W, {"xi": 1.0}, -2.0, 6.0),
        ("A/cosh(x)", {"A": 2.0}, -4.0, 4.0),
        ("4/(3*(cos(x)^2-4/3))", {}, -3.0, 3.0),
        ("sqrt(x)*tanh(x)", {}, 0.5, 5.0),
        ("exp(-x^2)*sin(3*x)", {}, -2.0, 2.0),
        ("(x^2+1)^-2", {}, -2.0, 2.0),
    ],
)
def test_derivative_against_central_differences(source, env, lo, hi):
    tree = parse(source)
    derivative = differentiate(tree)
    rng = np.random.default_rng(42)
    xs = rng.uniform(lo, hi, 100)
    h = 1e-5
    fd = (evaluate(tree, xs + h, env) - evaluate(tree, xs - h, env)) / (2 * h)
    assert np.max(np.abs(evaluate(derivative, xs, env) - fd)) < 1e-6


@pytest.mark.parametrize(
    "source,env,lo,hi",
    [
        (SCARF_W, {"A": 2.0}, -4.0, 4.0),
        (PERIODIC_W, {}, -3.0, 3.0),
        (MORSE_W, {"xi": 1.0}, -2.0, 6.0),
        ("-(3+A^2)/(4*cosh(x)^2)", {"A": 2.0}, -4.0, 4.0),
        ("1 - 2*x + x^2/3 - 4.5e-2*x^3", {}, -2.0, 2.0),
    ],
)
def test_print_parse_round_trip(source, env, lo, hi):
    tree = parse(source)
    for candidate in (tree, differentiate(tree)):
        reparsed = parse(to_source(candidate))
        xs = np.linspace(lo, hi, 37)
        assert_allclose(
            evaluate(reparsed, xs, env), evaluate(candidate, xs, env), rtol=0, atol=0
        )


def expression_trees():
    leaves = st.one_of(
        st.just(Var()),
        st.sampled_from(["A", "xi"]).map(Param),
        st.floats(-1e3, 1e3, allow_nan=False).map(Const),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
            st.builds(BinOp, st.sampled_from(sorted(_PREC)), sub, sub),
            st.builds(Pow, sub, st.integers(-3, 3)),
        ),
        max_leaves=12,
    )


def _outcome(tree, xs, env):
    try:
        with np.errstate(all="ignore"):
            return evaluate(tree, xs, env).tobytes()
    except EvaluationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(expression_trees())
def test_printed_source_is_a_fixed_point_of_parse(tree):
    """Printing is stable after one round through parse, and the reparsed
    tree evaluates bit for bit like the original, or fails with the same
    message at the same x; the same holds for the tree's derivative."""
    xs, env = np.linspace(-2.0, 2.0, 9), {"A": 1.5, "xi": -0.7}
    for candidate in (tree, differentiate(tree)):
        source = to_source(candidate)
        reparsed = parse(source)
        assert to_source(reparsed) == source
        assert _outcome(reparsed, xs, env) == _outcome(candidate, xs, env)


def test_derivative_exponent_stays_parseable():
    # parse takes exponents below 2^53 in magnitude, so the derivative of
    # x^-(2^53 - 1) would print an exponent that parse refuses
    with pytest.raises(EvaluationError, match="exponent -9007199254740992"):
        differentiate(parse("x^-9007199254740991"))
    for source in ("x^9007199254740991", "x^-9007199254740990"):
        printed = to_source(differentiate(parse(source)))
        assert to_source(parse(printed)) == printed


def test_syntax_error_carries_column():
    with pytest.raises(ExprSyntaxError) as info:
        parse("2*(x+")
    assert info.value.column == 5


def test_unknown_function_reports_position():
    with pytest.raises(ExprSyntaxError, match="unknown function 'foo' at column 4"):
        parse("3 + foo(x)")


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x + 1 )")


def test_exponent_must_be_integer():
    with pytest.raises(ExprSyntaxError, match="exponent"):
        parse("x^2.5")
    with pytest.raises(ExprSyntaxError):
        parse("x^A")
    with pytest.raises(ExprSyntaxError, match="exponent must be a constant integer at column 2"):
        parse("x^1e999")
    # from 2^53 on, the float read need not be the integer written, so the
    # printed derivative of x^1e20 would parse back to another exponent
    for source in ("x^1e20", "x^-9007199254740993", "x^9007199254740992"):
        with pytest.raises(ExprSyntaxError, match="below 2\\^53"):
            parse(source)
    assert parse("x^-9007199254740991") == Pow(Var(), -(2**53 - 1))


def test_negative_integer_exponent_allowed():
    tree = parse("cosh(x)^-2")
    assert evaluate(tree, 0.0) == 1.0


def test_unbound_parameter():
    with pytest.raises(EvaluationError, match="unbound parameter 'A'"):
        evaluate(parse(SCARF_W), 1.0)


def test_division_by_zero_reports_x():
    with pytest.raises(EvaluationError, match="division by zero at x = 2"):
        evaluate(parse("1/(x-2)"), 2.0)


def test_division_by_zero_in_array():
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(parse("1/x"), np.array([1.0, 0.0, 2.0]))
    # a divisor that does not depend on x fails at the first x
    with pytest.raises(EvaluationError, match="division by zero at x = 1"):
        evaluate(parse("1/0 + x"), np.array([1.0, 2.0]))


def test_negative_power_of_zero_is_division_by_zero():
    with pytest.raises(EvaluationError, match="division by zero at x = 0"):
        evaluate(parse("x^-1"), 0.0)


def test_sqrt_of_negative_rejected():
    with pytest.raises(EvaluationError, match="square root of negative"):
        evaluate(parse("sqrt(x)"), -1.0)


@pytest.mark.parametrize(
    "source,x,where",
    [
        ("sinh(x)/cosh(x)^2", np.array([1.0, 709.0, 720.0, 730.0]), "x = 720"),
        ("1e999", np.array([1.0, 2.0]), "x = 1"),
        ("exp(x)", 800.0, "x = 800"),
    ],
    ids=["overflow_in_array", "infinite_constant", "scalar"],
)
def test_non_finite_value_reports_x(source, x, where):
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match=where):
        evaluate(parse(source), x)


@pytest.mark.parametrize("source", ["1e999", "-1e999*x", "x^2 - A*1e999"])
def test_infinite_constant_round_trips_through_source(source):
    expr = parse(source)
    assert parse(to_source(expr)) == expr


def test_negative_infinite_constant_renders_as_a_literal():
    assert to_source(Const(float("-inf"))) == "-1e999"
    assert to_source(Pow(Const(float("-inf")), 2)) == "(-1e999)^2"


@pytest.mark.parametrize(
    "source,unfolded",
    [
        ("1e999*3", BinOp("*", Const(float("inf")), Const(0.0))),
        ("1e999*x - 1e999*x", BinOp("-", Const(float("inf")), Const(float("inf")))),
        ("x/1e999", BinOp("/", Const(float("inf")), Const(float("inf")))),
    ],
    ids=["inf_times_zero", "inf_minus_inf", "inf_over_inf"],
)
def test_constant_fold_to_nan_stays_a_tree(source, unfolded):
    derivative = differentiate(parse(source))
    assert derivative == unfolded
    # NaN has no source text; the unfolded tree prints, parses back, and
    # evaluate refuses its value as a domain error
    assert parse(to_source(derivative)) == derivative
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="non-finite value"):
        evaluate(derivative, np.array([1.0, 2.0]))


def test_free_parameters_collects_names():
    assert free_parameters(parse("-A*sinh(x)/cosh(x)^2 + B*x")) == {"A", "B"}


def test_constant_folding_in_derivatives():
    assert differentiate(parse("3*x")) == Const(3.0)
    assert differentiate(parse("x^2")) == BinOp("*", Const(2.0), Var())
    assert differentiate(parse("A")) == Const(0.0)
    # powers that Python's float ** cannot fold stay trees for evaluate to refuse
    assert differentiate(parse("1e200^3*x")) == Pow(Const(1e200), 3)
    assert differentiate(parse("0^-1*x")) == Pow(Const(0.0), -1)
