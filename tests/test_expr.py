import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedlattice.cli import main
from curvedlattice.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    DerivativeError,
    EvalError,
    ExpressionError,
    Neg,
    Num,
    Param,
    ParseError,
    Var,
    diff_t,
    evaluate,
    param_names,
    parse,
    to_source,
    uses_variable,
)
from curvedlattice.metric import MetricDomainError, MetricError, MetricModel
from curvedlattice.operator import OperatorError, build


def test_parse_metric_exponent():
    ast = parse("exp(r*t + q*x)")
    expected = Call(
        "exp",
        BinOp("+", BinOp("*", Param("r"), Var("t")), BinOp("*", Param("q"), Var("x"))),
    )
    assert ast == expected


def test_parse_incomplete_expression_offset():
    with pytest.raises(ParseError) as err:
        parse("2*")
    assert err.value.offset == 2


def test_parse_right_associative_power():
    ast = parse("(1 - (q*x)^2)^0.5")
    inner = BinOp("-", Num(1.0), BinOp("^", BinOp("*", Param("q"), Var("x")), Num(2.0)))
    assert ast == BinOp("^", inner, Num(0.5))
    # chained powers nest to the right
    assert parse("2^3^2") == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))


def test_parse_precedence():
    # unary minus binds looser than ^, tighter than * /
    assert parse("-x^2") == Neg(BinOp("^", Var("x"), Num(2.0)))
    assert parse("2^-3") == BinOp("^", Num(2.0), Neg(Num(3.0)))
    assert parse("a-b+c") == BinOp("+", BinOp("-", Param("a"), Param("b")), Param("c"))
    assert parse("a/b/c") == BinOp("/", BinOp("/", Param("a"), Param("b")), Param("c"))
    a, b, c, x, y, z = Param("a"), Param("b"), Param("c"), Var("x"), Param("y"), Param("z")
    assert parse("-a^b") == Neg(BinOp("^", a, b))
    assert parse("a^-b^c") == BinOp("^", a, Neg(BinOp("^", b, c)))
    assert parse("a^b*c") == BinOp("*", BinOp("^", a, b), c)
    assert parse("a*b^c") == BinOp("*", a, BinOp("^", b, c))
    assert parse("-a*b") == BinOp("*", Neg(a), b)
    assert parse("2*-3") == BinOp("*", Num(2.0), Neg(Num(3.0)))
    assert parse("x^-y*z") == BinOp("*", BinOp("^", x, Neg(y)), z)
    assert parse("a-b-c") == BinOp("-", BinOp("-", a, b), c)
    assert parse("a^b^c") == BinOp("^", a, BinOp("^", b, c))
    assert parse("--x") == Neg(Neg(x))


@pytest.mark.parametrize("source", ["", "   ", "1+", "(1+2", "sin 3", "foo(2)", "1..2", "x y"])
def test_parse_rejects_malformed(source):
    with pytest.raises(ParseError):
        parse(source)


@pytest.mark.parametrize(
    "source,message,offset",
    [
        ("", "empty expression", 0),
        ("   ", "empty expression", 0),
        ("1.2.3", "malformed number '1.2.3'", 0),
        ("x$", "unexpected character '$'", 1),
        ("sin(x", "expected ')' closing function call", 5),
        ("(x", "expected ')' closing group", 2),
        ("x+", "expected a number, name, '(' or unary '-'", 2),
        ("*x", "expected a number, name, '(' or unary '-'", 0),
        ("x^", "expected a number, name, '(' or unary '-'", 2),
        ("x y", "unexpected trailing input 'y'", 2),
    ],
)
def test_parse_error_text_and_offset(source, message, offset):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


def test_unknown_function_error_names_the_known_functions(tmp_path, capsys):
    known = "exp, log, sqrt, sin, cos, cosh, sinh, tanh, abs"
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert str(err.value) == f"unknown function 'foo'; expected one of {known} (at offset 0)"
    argv = ["classify", "--family", "custom", "--alpha", "foo(x)", "--beta", "1", "--L", "4",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {err.value}\n"


def test_readme_lists_the_dsl_functions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(line for line in readme.splitlines() if line.startswith("DSL functions:"))
    assert tuple(re.findall(r"`(\w+)\(", line)) == FUNCTIONS


def test_eval_examples():
    assert evaluate(parse("exp(r*t+q*x)"), x=0.0, t=0.0, params={"r": 1.7, "q": -3.0}) == 1.0
    assert evaluate(parse("(1-(q*x)^2)^0.5"), x=4.0, t=0.0, params={"q": 0.25}) == 0.0
    assert evaluate(parse("q*x"), x=3.0, t=0.0, params={"q": 0.002}) == pytest.approx(0.006, rel=1e-15)


def test_eval_unbound_parameter():
    with pytest.raises(EvalError, match="unbound parameter 'q'"):
        evaluate(parse("q*x"), x=1.0, t=0.0)


@pytest.mark.parametrize(
    "source,x",
    [
        ("sqrt(x)", -1.0),
        ("log(x)", 0.0),
        ("1/x", 0.0),
        ("x^0.5", -2.0),
        ("exp(x)", 1e6),  # overflow
    ],
)
def test_eval_domain_errors(source, x):
    with pytest.raises(EvalError):
        evaluate(parse(source), x=x, t=0.0)


@pytest.mark.parametrize(
    "source,x,message",
    [
        ("q*x", 1.0, "unbound parameter 'q'"),
        ("1/x", 0.0, "division by zero"),
        ("x^0.5", -2.0, "non-integer power 0.5 of negative base -2.0"),
        ("x^-1", 0.0, "zero raised to a negative power"),
        ("10^x", 400.0, "overflow in power"),
        ("exp(x)", 1e6, "overflow in exp"),
        ("cosh(x)", 1e6, "overflow in cosh"),
        ("sqrt(x)", -1.0, "sqrt of negative value -1.0"),
        ("log(x)", 0.0, "log of non-positive value 0.0"),
        ("x*x", 1e200, "non-finite result inf from 'x*x'"),
        ("sin(x*x)", 1e200, "sin of infinite value inf"),
        ("cos(-x*x)", 1e200, "cos of infinite value -inf"),
    ],
)
def test_eval_error_text(source, x, message):
    with pytest.raises(EvalError) as err:
        evaluate(parse(source), x=x, t=0.0)
    assert str(err.value) == message


def test_eval_integer_power_of_negative_base():
    assert evaluate(parse("x^3"), x=-2.0, t=0.0) == -8.0


def test_diff_t_examples():
    ast = parse("exp(r*t+q*x)")
    assert diff_t(ast) == BinOp("*", Param("r"), ast)
    assert diff_t(parse("q*x")) == Num(0.0)
    d = diff_t(parse("r*t+q*x"))
    for x, t in [(0.0, 0.0), (2.5, -1.0), (-3.0, 7.0)]:
        assert evaluate(d, x=x, t=t, params={"r": 0.5, "q": 0.1}) == 0.5


def test_diff_t_of_a_power_of_t_folds():
    # u^v with du = 0 is u^v·log(u)·dv, and dv = 1 folds away
    d = diff_t(parse("2^t"))
    assert d == BinOp("*", BinOp("^", Num(2.0), Var("t")), Call("log", Num(2.0)))
    assert to_source(d) == "2.0^t*log(2.0)"


@pytest.mark.parametrize("source", ["x^t", "t^t", "(1+t)^(x*t)"])
def test_diff_t_of_a_power_matches_central_differences(source):
    # the exponent rule u^v·(dv·log(u) + v·du/u), and its du = 0 branch
    ast, h = parse(source), 1e-6
    d = diff_t(ast)
    for x, t in [(0.5, 0.7), (1.3, 1.1), (2.0, 0.4)]:
        numeric = (evaluate(ast, x=x, t=t + h) - evaluate(ast, x=x, t=t - h)) / (2 * h)
        assert evaluate(d, x=x, t=t) == pytest.approx(numeric, rel=1e-8)


def test_diff_t_rejects_abs():
    with pytest.raises(DerivativeError):
        diff_t(parse("abs(t)"))


def test_diff_t_error_text():
    with pytest.raises(DerivativeError) as err:
        diff_t(parse("abs(t)"))
    assert str(err.value) == "abs is not differentiable"


def test_diff_t_of_abs_of_a_static_argument():
    # abs of an argument free of t is constant in t, so its derivative is 0
    assert diff_t(parse("abs(x-3)")) == Num(0.0)
    d = diff_t(parse("t*abs(x)"))
    for x in (-2.5, 0.0, 1.5):
        assert evaluate(d, x=x, t=0.7) == abs(x)


def test_tree_queries():
    ast = parse("exp(r*t+q*x)")
    assert param_names(ast) == frozenset({"r", "q"})
    assert uses_variable(ast, "t")
    assert uses_variable(ast, "x")
    assert not uses_variable(parse("q*x"), "t")


# ---------------------------------------------------------------------------
# Property tests over randomly generated trees (seeded, deterministic)

_SAFE_FUNCS = ("sin", "cos", "tanh", "exp", "cosh", "sinh")


def _random_tree(rng, depth, with_abs=False):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return Num(round(rng.uniform(0.0, 4.0), 3))
        if kind == 1:
            return Var(rng.choice(("x", "t")))
        return Param(rng.choice(("q", "r", "c")))
    if roll < 0.40:
        return Neg(_random_tree(rng, depth - 1, with_abs))
    if roll < 0.60:
        funcs = _SAFE_FUNCS + (("abs",) if with_abs else ())
        return Call(rng.choice(funcs), _random_tree(rng, depth - 1, with_abs))
    op = rng.choice(("+", "-", "*", "/", "^"))
    lhs = _random_tree(rng, depth - 1, with_abs)
    rhs = _random_tree(rng, depth - 1, with_abs)
    if op == "^":
        # keep powers tame so evaluation stays in range
        rhs = Num(float(rng.randrange(1, 4)))
    return BinOp(op, lhs, rhs)


def test_roundtrip_print_parse():
    rng = random.Random(20240817)
    for _ in range(400):
        ast = _random_tree(rng, depth=5, with_abs=True)
        assert parse(to_source(ast)) == ast


def test_diff_t_matches_finite_difference():
    rng = random.Random(7)
    params = {"q": 0.7, "r": 1.3, "c": 0.4}
    h = 1e-6
    checked = 0
    attempts = 0
    while checked < 120 and attempts < 3000:
        attempts += 1
        ast = _random_tree(rng, depth=4, with_abs=False)
        x = rng.uniform(-2.0, 2.0)
        t = rng.uniform(-2.0, 2.0)
        try:
            d = evaluate(diff_t(ast), x=x, t=t, params=params)
            fp = evaluate(ast, x=x, t=t + h, params=params)
            fm = evaluate(ast, x=x, t=t - h, params=params)
            f0 = evaluate(ast, x=x, t=t, params=params)
        except (EvalError, DerivativeError):
            continue
        if abs(f0) > 1e6 or abs(d) > 1e6:
            continue  # cancellation in the stencil would dominate
        fd = (fp - fm) / (2 * h)
        assert abs(fd - d) <= 1e-6 * max(1.0, abs(d)), to_source(ast)
        checked += 1
    assert checked >= 120


# ---------------------------------------------------------------------------
# Hypothesis properties over trees from the parser's grammar


def _trees(functions=FUNCTIONS):
    """Trees the parser can produce: non-negative finite numbers (a sign is a
    Neg node), x and t, parameters, negation, calls and binary operators;
    a power's exponent is a small whole number, as in the seeded tests."""
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
        st.sampled_from([Var("x"), Var("t"), Param("q"), Param("r"), Param("c")]),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.builds(Call, st.sampled_from(functions), children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(BinOp, st.just("^"), children, st.integers(1, 3).map(float).map(Num)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tree=_trees())
def test_hypothesis_print_parse_roundtrip(tree):
    assert parse(to_source(tree)) == tree


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    tree=_trees(tuple(f for f in FUNCTIONS if f != "abs")),
    x=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=-2.0, max_value=2.0),
)
def test_hypothesis_diff_t_matches_central_difference(tree, x, t):
    # where the tree and its derivative evaluate to moderate values, the
    # central difference agrees to its truncation and rounding error
    params = {"q": 0.7, "r": 1.3, "c": 0.4}
    h = 1e-6
    try:
        d = evaluate(diff_t(tree), x=x, t=t, params=params)
        values = [evaluate(tree, x=x, t=t + k * h, params=params) for k in (-1, 0, 1)]
    except EvalError:
        return
    scale = max(1.0, abs(d), *map(abs, values))
    if scale > 1e6:
        return  # cancellation in the stencil would dominate
    fd = (values[2] - values[0]) / (2 * h)
    assert abs(fd - d) <= 1e-5 * scale, to_source(tree)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    tree=_trees(),
    t=st.floats(min_value=-2.0, max_value=2.0),
    M=st.floats(min_value=0.0, max_value=3.0),
    bc=st.sampled_from(["open", "periodic"]),
)
def test_hypothesis_unit_beta_gives_entrywise_hermitian_operator(tree, t, M, bc):
    # alpha = |tree| >= 0, static or not, with beta = 1: H = H† entry by entry
    model = MetricModel.custom(Call("abs", tree), Num(1.0), L=6, params={"q": 0.7, "r": 1.3, "c": 0.4})
    try:
        H = build(model.sample(t), M, 1.0, bc).matrix
    except (MetricError, ExpressionError, OperatorError):
        return  # alpha leaves its domain on the chain
    assert np.array_equal(H, H.conj().T)


@pytest.mark.parametrize("alpha,beta,error", [
    ("sqrt(1+c*x)*(1+0.1*tanh(t))", "exp(-0.5*t)*log(2+x)^2", None),
    ("sqrt(x-3)", "1", "custom metric at site 0, t=0.5: sqrt of negative value -3.0"),
    ("1+c*log(abs(x-1))", "1", "custom metric at site 1, t=0.5: log of non-positive value 0.0"),
    # β = 0 = ∂₀β at site 0 gives ∂₀β/β = 0; site 1 has ∂₀β = 1
    ("1", "(t-0.5)*x", "divergent ∂₀β/β: β = 0 with ∂₀β = 1 at site 1, t=0.5"),
], ids=["profiles", "sqrt", "log", "beta0"])
def test_direct_and_custom_built_models_sample_alike(alpha, beta, error):
    # one owner samples both: the same bytes, or the same error at the same site
    params = {"c": 0.01}
    built = MetricModel.custom(alpha, beta, L=8, params=params)
    direct = MetricModel("custom", 8, alpha_expr=parse(alpha), beta_expr=parse(beta), params=params)
    if error is None:
        for t in (0.0, 0.5):
            a, b = built.sample(t), direct.sample(t)
            for name in ("alpha", "beta", "dlog_beta_dt"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        return
    for model in (built, direct):
        with pytest.raises(MetricDomainError) as err:
            model.sample(0.5)
        assert str(err.value) == error
