import ast
import importlib.util
import itertools
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import jets
from mixedcurv.errors import InvalidArgumentError, SingularEvaluationError, member_point
from mixedcurv.jets import (ArrayJet, Jet, check_finite, dense, dshift, elementary,
                            gradients, jexp, jlog, jpow, jsin, jsqrt, jtanh, order1,
                            scatter, seed, value_of, values)


def central(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def central2(f, x, h):
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def test_seed_basics():
    a, b = seed((0.0, 0.0), 1)
    assert a.v == 0.0 and a.g == (1.0, 0.0)
    assert b.v == 0.0 and b.g == (0.0, 1.0)
    assert a.h is None


def test_seed_bilinear():
    x0, x1, x2 = seed((1.0, 2.0, 3.0), 2)
    f = x0 * x1
    assert f.v == 2.0
    assert f.g == (2.0, 1.0, 0.0)
    assert f.h[0][1] == 1.0 and f.h[1][0] == 1.0
    assert f.h[0][0] == 0.0 and f.h[2][2] == 0.0


def test_seed_sin_closed_form():
    (x,) = seed((0.3,), 2)
    f = jsin(x)
    assert f.v == pytest.approx(math.sin(0.3), abs=1e-12)
    assert f.g[0] == pytest.approx(math.cos(0.3), abs=1e-12)
    assert f.h[0][0] == pytest.approx(-math.sin(0.3), abs=1e-12)


def test_seed_rejects_bad_order():
    with pytest.raises(InvalidArgumentError):
        seed((0.0,), 3)
    with pytest.raises(InvalidArgumentError):
        seed((float("nan"),), 1)


def test_arith_square():
    (x,) = seed((3.0,), 2)
    f = x * x
    assert (f.v, f.g[0], f.h[0][0]) == (9.0, 6.0, 2.0)


def test_arith_self_division():
    (x,) = seed((2.0,), 2)
    f = x / x
    assert f.v == pytest.approx(1.0)
    assert f.g[0] == pytest.approx(0.0, abs=1e-15)
    assert f.h[0][0] == pytest.approx(0.0, abs=1e-15)


def test_division_by_zero_value():
    (x,) = seed((0.0,), 1)
    with pytest.raises(SingularEvaluationError):
        _ = 1.0 / x


def test_pow_half_vs_central_difference():
    (x,) = seed((4.0,), 2)
    f = x ** 0.5
    h = 1e-4
    assert f.g[0] == pytest.approx(central(lambda t: t ** 0.5, 4.0, h), abs=1e-7)
    assert f.h[0][0] == pytest.approx(central2(lambda t: t ** 0.5, 4.0, h), abs=1e-7)


def test_pow_domain_error():
    (x,) = seed((-1.0,), 1)
    with pytest.raises(SingularEvaluationError):
        _ = x ** 0.5
    assert ((x ** 2).v, (x ** 3).v) == (1.0, -1.0)   # integer powers stay fine


def test_elementary_exp_at_zero():
    (x,) = seed((0.0,), 2)
    f = elementary(x, "exp")
    assert (f.v, f.g[0], f.h[0][0]) == (1.0, 1.0, 1.0)


def test_elementary_tanh_vs_fd():
    (x,) = seed((0.5,), 2)
    f = jtanh(x)
    h = 1e-5
    assert f.g[0] == pytest.approx(central(math.tanh, 0.5, h), abs=1e-7)
    assert f.h[0][0] == pytest.approx(central2(math.tanh, 0.5, h), abs=1e-6)


def test_log_exp_inverse_pair():
    (x,) = seed((1.7,), 2)
    f = jlog(jexp(x))
    assert f.v == pytest.approx(1.7, abs=1e-12)
    assert f.g[0] == pytest.approx(1.0, abs=1e-12)
    assert f.h[0][0] == pytest.approx(0.0, abs=1e-12)


def test_log_domain():
    (x,) = seed((-2.0,), 1)
    with pytest.raises(SingularEvaluationError):
        jlog(x)
    with pytest.raises(SingularEvaluationError):
        jsqrt(x)


def test_elementary_unknown_name():
    (x,) = seed((0.0,), 1)
    with pytest.raises(InvalidArgumentError):
        elementary(x, "erf")


def test_mixed_partials_commute():
    x, y = seed((0.3, -0.7), 2)
    f = jsin(x * y) * jexp(x)

    def F(a, b):
        return math.sin(a * b) * math.exp(a)

    h = 1e-4
    fd = (F(0.3 + h, -0.7 + h) - F(0.3 + h, -0.7 - h)
          - F(0.3 - h, -0.7 + h) + F(0.3 - h, -0.7 - h)) / (4 * h * h)
    assert f.h[0][1] == pytest.approx(fd, abs=1e-6)
    assert f.h[1][0] == pytest.approx(fd, abs=1e-6)
    assert f.h[0][1] == pytest.approx(f.h[1][0], abs=1e-12)


# ---------------------------------------------------------------------------
# property tests

@st.composite
def polys(draw):
    nvars = draw(st.integers(1, 4))
    nterms = draw(st.integers(1, 6))
    terms = []
    for _ in range(nterms):
        coef = draw(st.floats(-3, 3, allow_nan=False))
        expo = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        if sum(expo) <= 4:
            terms.append((coef, expo))
    point = tuple(draw(st.floats(-1.5, 1.5, allow_nan=False)) for _ in range(nvars))
    return nvars, terms, point


def eval_poly(terms, xs):
    total = 0.0
    for coef, expo in terms:
        term = coef
        for x, e in zip(xs, expo):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def poly_grad(terms, xs, i):
    total = 0.0
    for coef, expo in terms:
        if expo[i] == 0:
            continue
        term = coef * expo[i]
        for j, (x, e) in enumerate(zip(xs, expo)):
            ee = e - 1 if j == i else e
            for _ in range(ee):
                term = term * x
        total += term
    return total


def poly_hess(terms, xs, i, j):
    total = 0.0
    for coef, expo in terms:
        e = list(expo)
        if i == j:
            if e[i] < 2:
                continue
            factor = e[i] * (e[i] - 1)
            e[i] -= 2
        else:
            if e[i] == 0 or e[j] == 0:
                continue
            factor = e[i] * e[j]
            e[i] -= 1
            e[j] -= 1
        term = coef * factor
        for x, ee in zip(xs, e):
            for _ in range(ee):
                term = term * x
        total += term
    return total


@settings(max_examples=100, deadline=None)
@given(polys())
def test_polynomial_derivatives_exact(data):
    nvars, terms, point = data
    xs = seed(point, 2)
    f = eval_poly(terms, xs)
    if not isinstance(f, Jet):
        return
    scale = max(1.0, abs(f.v))
    assert f.v == pytest.approx(eval_poly(terms, point), rel=1e-12, abs=1e-12 * scale)
    for i in range(nvars):
        assert f.g[i] == pytest.approx(poly_grad(terms, point, i),
                                       rel=1e-12, abs=1e-12 * scale)
        for j in range(nvars):
            assert f.h[i][j] == pytest.approx(poly_hess(terms, point, i, j),
                                              rel=1e-12, abs=1e-12 * scale)


def test_richardson_order_of_agreement():
    # |jet derivative - central difference(h)| should shrink like h^2
    rng = random.Random(11)
    f = lambda t: math.sin(1.3 * t) * math.exp(0.4 * t) + t ** 3

    def jet_f(x):
        return jsin(1.3 * x) * jexp(0.4 * x) + x * x * x

    x0 = rng.uniform(-1, 1)
    (x,) = seed((x0,), 1)
    exact = jet_f(x).g[0]
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        errs.append(abs(central(f, x0, h) - exact))
    order = math.log(errs[0] / errs[1]) / math.log(10.0)
    assert order >= 1.9


# ---------------------------------------------------------------------------
# values / gradients: the float arrays of nested lists of scalars

_coef = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def scalar_arrays(draw, min_dims=0):
    """(d, shape, nested list) with floats, order-1 and order-2 jets mixed."""
    d = draw(st.integers(1, 4))
    shape = draw(st.lists(st.integers(1, 3), min_size=min_dims, max_size=3))

    def leaf():
        kind = draw(st.sampled_from(("float", "jet1", "jet2")))
        v = draw(_coef)
        if kind == "float":
            return v
        g = [draw(_coef) for _ in range(d)]
        h = None if kind == "jet1" else [[draw(_coef) for _ in range(d)] for _ in range(d)]
        return Jet(v, g, h)

    def build(dims):
        if not dims:
            return leaf()
        return [build(dims[1:]) for _ in range(dims[0])]

    return d, tuple(shape), build(shape)


def _at(J, idx):
    for i in idx:
        J = J[i]
    return J


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalar_arrays())
def test_values_and_gradients_match_elementwise_reads(data):
    d, shape, J = data
    V, G = values(J), gradients(J, d)
    assert V.shape == shape and V.dtype == float
    assert G.shape == (d,) + shape and G.dtype == float
    assert G.flags["C_CONTIGUOUS"]
    for idx in itertools.product(*(range(k) for k in shape)):
        x = _at(J, idx)
        if isinstance(x, Jet):
            assert V[idx] == x.v
            assert [G[(m,) + idx] for m in range(d)] == list(x.g)
        else:
            assert V[idx] == x
            assert all(G[(m,) + idx] == 0.0 for m in range(d))


def _without_order1(J):
    if isinstance(J, list):
        return [_without_order1(x) for x in J]
    return J.v if isinstance(J, Jet) and J.h is None else J


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalar_arrays(min_dims=1))
def test_object_arrays_read_like_nested_lists(data):
    # values, gradients and dense of an object ndarray (and of the nested
    # list it holds) agree with elementwise reads of the list
    d, shape, J = data
    idxs = list(itertools.product(*(range(k) for k in shape)))
    A = np.empty(shape, dtype=object)
    for idx in idxs:
        A[idx] = _at(J, idx)
    for X in (A, J):
        V, G = values(X), gradients(X, d)
        assert V.shape == shape and G.shape == (d,) + shape
        for idx in idxs:
            x = _at(J, idx)
            if isinstance(x, Jet):
                assert V[idx] == x.v
                assert [G[(m,) + idx] for m in range(d)] == list(x.g)
            else:
                assert V[idx] == x
                assert all(G[(m,) + idx] == 0.0 for m in range(d))
    if any(isinstance(x, Jet) and x.h is None for x in A.flat):
        with pytest.raises(SingularEvaluationError):
            dshift(dense(A, d))
    # dshift needs order 2: read it on the same entries with order-1 jets
    # replaced by their values
    J = _without_order1(J)
    for idx in idxs:
        A[idx] = _at(J, idx)
    for X in (A, J):
        D = dshift(dense(X, d))
        assert D.shape == (d,) + shape and D.h is None
        for idx in idxs:
            x = _at(J, idx)
            for m in range(d):
                y = (D.v[(m,) + idx], D.g[(slice(None), m) + idx].tolist())
                if isinstance(x, Jet):
                    assert y == (x.g[m], list(x.h[m]))
                else:
                    assert y == (0.0, [0.0] * d)


def test_values_and_gradients_of_seeded_expression():
    x, y = seed((0.5, -0.25), 2)
    J = [[x * y, 2.0], [jsin(x), y]]
    assert values(J).tolist() == [[-0.125, 2.0], [math.sin(0.5), -0.25]]
    G = gradients(J, 2)
    assert G[0].tolist() == [[-0.25, 0.0], [math.cos(0.5), 0.0]]
    assert G[1].tolist() == [[0.5, 0.0], [0.0, 1.0]]
    assert gradients(x * y, 2).tolist() == [-0.25, 0.5]
    assert gradients(3.0, 2).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# array jets against the scalar Jet, node by node

def _node(x, k):
    """Node k of an array jet as a Jet (floats pass through)."""
    if not isinstance(x, ArrayJet):
        return x
    return Jet(float(x.v[k]), x.g[:, k].tolist(), None if x.h is None else x.h[..., k].tolist())


@st.composite
def node_jets(draw, N, d, order):
    """An array jet over N nodes and its N scalar Jets.  Values are 0, or of
    size 0.1 to 3 and of either sign, so every domain error occurs."""
    mag = st.floats(0.1, 3.0)
    val = st.one_of(st.just(0.0), mag, mag.map(lambda x: -x))
    coef = st.floats(-2.0, 2.0, allow_nan=False)
    v = np.array([draw(val) for _ in range(N)])
    g = np.array([[draw(coef) for _ in range(d)] for _ in range(N)]).T
    h = None
    if order == 2:
        h = np.array([[[draw(coef) for _ in range(d)] for _ in range(d)] for _ in range(N)])
        h = (h + h.transpose(0, 2, 1)).transpose(1, 2, 0)
    A = ArrayJet(v, g, h)
    return A, [_node(A, k) for k in range(N)]


def _outcome(f, *args):
    try:
        return f(*args), None
    except (SingularEvaluationError, OverflowError) as exc:
        return None, type(exc)


# (name, operation, exact): an exact operation gives Jet's bits at every node
BINARY_OPS = [("add", lambda a, b: a + b, True), ("sub", lambda a, b: a - b, True),
              ("mul", lambda a, b: a * b, True), ("div", lambda a, b: a / b, True),
              ("pow", jpow, False)]
UNARY_OPS = ([("neg", lambda a: -a, True), ("log", jlog, False), ("sqrt", jsqrt, False)]
             + [(f"pow{e}", lambda a, e=e: a ** e, float(e) == int(e))
                for e in (0, 1, 2, 3, -1, -2, 0.5, 1.5, -0.5)]
             + [(f"rpow{b}", lambda a, b=b: jpow(b, a), False) for b in (0.5, 2.0)]
             + [(f"rdiv{c}", lambda a, c=c: c / a, True) for c in (1.0, -2.5)]
             + [(fn, lambda a, fn=fn: elementary(a, fn), False)
                for fn in ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
                           "sqrt", "atan")])


def _assert_nodes_match(out, want, exact):
    assert isinstance(out, ArrayJet)
    for k, J in enumerate(want):
        got = _node(out, k)
        if exact:
            assert (got.v, got.g, got.h) == (J.v, J.g, J.h)
        else:
            assert got.v == pytest.approx(J.v, rel=1e-13, abs=1e-13)
            assert np.allclose(got.g, J.g, rtol=1e-13, atol=1e-13)
            assert (got.h is None) == (J.h is None)
            if J.h is not None:
                assert np.allclose(got.h, J.h, rtol=1e-12, atol=1e-12)


def _check_op(f, exact, args, node_args):
    out, err = _outcome(f, *args)
    want = [_outcome(f, *a) for a in node_args]
    errs = {e for _, e in want if e is not None}
    # the array jet raises exactly when a Jet raises at some node, and the same class
    if errs:
        assert err in errs, f"expected one of {errs}, got {err}"
        return
    assert err is None
    _assert_nodes_match(out, [w for w, _ in want], exact)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_array_jet_matches_jet_operation_by_operation(data):
    N = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))
    oa, ob = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 1)]))
    A, As = data.draw(node_jets(N, d, oa))
    B, Bs = data.draw(node_jets(N, d, ob))
    c = data.draw(st.sampled_from([0.0, 1.5, -0.75, 2]))
    for name, f, exact in BINARY_OPS:
        _check_op(f, exact, (A, B), list(zip(As, Bs)))
        _check_op(f, exact, (A, c), [(a, c) for a in As])
        if name != "pow":
            _check_op(f, exact, (c, A), [(c, a) for a in As])
    for name, f, exact in UNARY_OPS:
        _check_op(f, exact, (A,), [(a,) for a in As])


def test_array_jet_overflow_raises_as_math_does():
    (x,) = seed([[1.0], [800.0]], 2)
    for fn in ("exp", "sinh", "cosh"):
        with pytest.raises(OverflowError):
            elementary(x, fn)
        with pytest.raises(OverflowError):
            elementary(_node(x, 1), fn)
    with pytest.raises(OverflowError):
        x ** 200.5
    with pytest.raises(OverflowError):
        _node(x, 1) ** 200.5


def test_array_jet_refuses_mixed_kinds():
    (x,) = seed([[1.0], [2.0]], 1)
    (y,) = seed([[1.0], [2.0], [3.0]], 1)
    with pytest.raises(InvalidArgumentError):
        x + y
    with pytest.raises(InvalidArgumentError):
        x * seed((1.0,), 1)[0]
    with pytest.raises(TypeError):
        float(x)


def test_seeded_batch_reads_node_first():
    pts = np.array([[0.5, -0.25], [1.0, 2.0], [-0.3, 0.7]])
    xs = seed(pts, 2)
    J = [[xs[0] * xs[1], 2.0], [jsin(xs[0]), xs[1]]]
    V, G = values(J), gradients(J, 2)
    assert V.shape == (3, 2, 2) and G.shape == (2, 3, 2, 2)
    assert G.flags["C_CONTIGUOUS"]
    for k, pt in enumerate(pts):
        Jk = [[_node(x, k) for x in row] for row in J]
        assert V[k].tolist() == values(Jk).tolist()
        assert np.allclose(G[:, k], gradients(Jk, 2), rtol=1e-15, atol=0)
        assert [_node(x, k).g for x in seed(pts, 1)] == [x.g for x in seed(pt, 1)]
    D = dshift(dense(J, 2))
    assert D.shape == (2, 3, 2, 2) and D.h is None
    assert not D.v[:, :, 0, 1].any() and not D.g[..., 0, 1].any()
    for m in range(2):
        assert np.array_equal(D.v[m, :, 0, 0], J[0][0].g[m])
        assert np.array_equal(D.g[:, m, :, 0, 0], J[0][0].h[m])
    O = order1(dense(J, 2))
    assert O.h is None and np.array_equal(O.g[:, :, 0, 0], J[0][0].g)
    assert values(2.0).shape == () and values([1.0, xs[0]]).shape == (3, 2)
    with pytest.raises(InvalidArgumentError):
        seed([[0.0, float("inf")]], 1)


def test_scatter_and_check_finite_work_node_by_node():
    pts = np.array([[0.5], [1.0], [2.0]])
    (x,) = seed(pts, 2)
    m = np.array([True, False, True])
    w = scatter(m, x[m] * x[m])
    assert w.v.tolist() == [0.25, 0.0, 4.0]
    assert w.g[0].tolist() == [1.0, 0.0, 4.0]
    assert w.h[0, 0].tolist() == [2.0, 0.0, 2.0]
    assert scatter(m, order1(x)[m]).h is None
    assert check_finite(x) is x
    with pytest.raises(SingularEvaluationError):
        check_finite(ArrayJet(np.array([1.0, np.nan]), np.zeros((1, 2))))
    assert value_of(x) is x.v


def test_member_point_names_the_failing_member():
    nodes = ((0.1, 0.2), (0.3, 0.4))
    assert member_point(nodes, (1,)) == (0.3, 0.4)
    assert member_point((np.array([0.1, 0.3]), np.array([0.2, 0.4])), (1,)) == (0.3, 0.4)
    # 0-d seeds are one point: every index names it
    assert member_point((np.array(0.1), np.array(0.2)), (0,)) == (0.1, 0.2)
    assert member_point((0.1, 0.2), (0,)) == (0.1, 0.2)
    assert member_point(nodes, None) is nodes


# ---------------------------------------------------------------------------
# the benchmark's tracer swaps Jet methods by name

def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_jet_ops_are_jet_methods():
    tracing = _tracing_module()
    missing = [name for name in tracing.JET_OPS if name not in Jet.__dict__]
    assert not missing, f"perfbench/tracing.py counts missing Jet methods {missing}"


def test_tracer_counts_seeded_metric_evaluation():
    # perfbench/run.py seeds order-2 jets at a chart point and evaluates the
    # structure's data on them; the counter must see those operations
    from mixedcurv import euler_lagrange, gallery, jets, variations
    from mixedcurv.geometry import PointGeometry

    tracing = _tracing_module()
    s = gallery.load_entry("r3_contact").structure
    pt = (0.2, -0.3, 0.1)
    lib = types.SimpleNamespace(jets=jets, euler_lagrange=euler_lagrange,
                                variations=variations)
    with tracing.Counters(lib) as counts:
        seeds = jets.seed(pt, 2)
        rows = s.metric_at(seeds)
        s.dtilde_at(seeds)
    assert counts.jet_ops > 0
    assert values(rows).tolist() == PointGeometry(s, pt).g0.tolist()
    assert gradients(rows, 3).tolist() == gradients(PointGeometry(s, pt).gJ, 3).tolist()


def test_only_jets_builds_array_jets():
    # the jet layout (derivative axes first) is known to jets.py alone: no
    # other module of the package constructs an ArrayJet
    calls = []
    for path in sorted(Path(jets.__file__).parent.rglob("*.py")):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "ArrayJet":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
