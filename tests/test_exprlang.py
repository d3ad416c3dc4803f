import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import exprlang as ex
from mixedcurv.errors import ExprSyntaxError, NameResolutionError
from mixedcurv.jets import seed, value_of

from expr_walks import free_vars, pretty


def test_parse_three_term_sum():
    ast = ex.parse("1 + x1^2 + x2^2", dim=3)
    assert isinstance(ast, ex.Binary) and ast.op == "+"
    assert free_vars(ast) == {"x1", "x2"}


def test_parse_single_variable():
    ast = ex.parse("x0", dim=1)
    assert ast == ex.Var(0)


def test_parse_codim1_solution_component():
    text = "-sqrt(c1)*tanh(sqrt(c1)*x0 + sqrt(c1)*c2)"
    ast = ex.parse(text, dim=1, params={"c1", "c2"})
    v = ex.evaluate(ast, [0.0], {"c1": 1.0, "c2": 0.0})
    assert v == pytest.approx(0.0, abs=1e-15)


def test_eval_product():
    ast = ex.parse("x0*x1", dim=2)
    assert ex.evaluate(ast, [2.0, 3.0]) == 6.0


def test_eval_contact_metric_entry():
    ast = ex.parse("(1 + x1^2 + x2^2)/4", dim=3)
    assert ex.evaluate(ast, [0.0, 1.0, 0.0]) == pytest.approx(0.5)


def test_eval_with_jets_matches_fd():
    ast = ex.parse("sin(x0)^2", dim=1)
    x0 = 0.7
    (x,) = seed((x0,), 2)
    f = ex.evaluate(ast, [x])
    h = 1e-5
    fd1 = (math.sin(x0 + h) ** 2 - math.sin(x0 - h) ** 2) / (2 * h)
    fd2 = (math.sin(x0 + h) ** 2 - 2 * math.sin(x0) ** 2 + math.sin(x0 - h) ** 2) / h ** 2
    assert f.g[0] == pytest.approx(fd1, abs=1e-7)
    assert f.h[0][0] == pytest.approx(fd2, abs=1e-5)


def test_free_vars():
    assert free_vars(ex.parse("3.5", dim=2)) == set()
    assert free_vars(ex.parse("x0 + c*x2", dim=3, params={"c"})) == {"x0", "x2"}


def test_precedence_pow_over_unary_minus():
    # ^ binds tighter than unary minus: -2^2 == -(2^2)
    assert ex.evaluate(ex.parse("-2^2", dim=1), [0.0]) == -4.0
    assert ex.evaluate(ex.parse("(-2)^2", dim=1), [0.0]) == 4.0


def test_pow_right_associative():
    assert ex.evaluate(ex.parse("2^3^2", dim=1), [0.0]) == 512.0


def test_unary_minus_tighter_than_mul():
    assert ex.evaluate(ex.parse("2*-3", dim=1), [0.0]) == -6.0
    assert ex.evaluate(ex.parse("-x0*x0", dim=1), [2.0]) == -4.0


def test_scientific_literals():
    assert ex.evaluate(ex.parse("1.5e-2 + 2E3", dim=1), [0.0]) == pytest.approx(2000.015)


def test_undeclared_identifier():
    with pytest.raises(NameResolutionError):
        ex.parse("x9", dim=3)
    with pytest.raises(NameResolutionError):
        ex.parse("c1*x0", dim=3, params=set())
    with pytest.raises(NameResolutionError):
        ex.parse("frob(x0)", dim=1)


def test_syntax_error_diagnostics():
    with pytest.raises(ExprSyntaxError) as info:
        ex.parse("x0 + ", dim=1)
    assert info.value.offset <= 5
    with pytest.raises(ExprSyntaxError):
        ex.parse("", dim=1)
    with pytest.raises(ExprSyntaxError):
        ex.parse("(x0", dim=1)
    with pytest.raises(ExprSyntaxError):
        ex.parse("x0 x0", dim=1)
    with pytest.raises(ExprSyntaxError, match=r"bad numeric literal '1\.2\.3'") as info:
        ex.parse("1.2.3", dim=1)
    assert info.value.offset == 0 and info.value.expected == {"number"}


# ---------------------------------------------------------------------------
# round-trip and fuzz properties

_FNS = list(ex._FUNCTIONS)


def random_expr(rng, dim, params, depth=0):
    r = rng.random()
    if depth > 4 or r < 0.25:
        k = rng.random()
        if k < 0.4:
            return f"{rng.uniform(-5, 5):.4g}"
        if k < 0.8:
            return f"x{rng.randrange(dim)}"
        return rng.choice(sorted(params))
    if r < 0.4:
        return f"{rng.choice(_FNS)}({random_expr(rng, dim, params, depth + 1)})"
    if r < 0.5:
        return f"-{random_expr(rng, dim, params, depth + 1)}"
    if r < 0.6:
        return f"({random_expr(rng, dim, params, depth + 1)})"
    op = rng.choice(["+", "-", "*", "/", "^"])
    if op == "^":
        return f"({random_expr(rng, dim, params, depth + 1)})^{rng.randrange(4)}"
    return (f"{random_expr(rng, dim, params, depth + 1)} {op} "
            f"{random_expr(rng, dim, params, depth + 1)}")


def test_pretty_print_round_trip_200():
    rng = random.Random(2024)
    params = {"c1", "c2"}
    for _ in range(200):
        text = random_expr(rng, 3, params)
        ast = ex.parse(text, 3, params)
        again = ex.parse(pretty(ast), 3, params)
        assert again == ast, text


def test_real_eval_equals_jet_value_exactly():
    rng = random.Random(7)
    params = {"c1": 1.25, "c2": -0.5}
    names = set(params)
    for _ in range(100):
        text = random_expr(rng, 2, names)
        ast = ex.parse(text, 2, names)
        pt = (rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2))
        try:
            plain = ex.evaluate(ast, list(pt), params)
        except Exception:
            continue
        jet = ex.evaluate(ast, seed(pt, 2), params)
        assert value_of(jet) == plain


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="x012+-*/^()sincostanh. ,e", max_size=24))
def test_fuzz_garbled_inputs_never_crash(text):
    try:
        ex.parse(text, 3, {"c1"})
    except (ExprSyntaxError, NameResolutionError):
        pass


def test_parse_diagnostic_payload():
    with pytest.raises(ExprSyntaxError) as info:
        ex.parse("(1 +", dim=1)
    err = info.value
    assert err.offset <= 4 and err.reason
    assert isinstance(err.expected, frozenset)
