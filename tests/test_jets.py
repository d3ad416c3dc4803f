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

from mixedcurv.errors import InvalidArgumentError, SingularEvaluationError
from mixedcurv.jets import (Jet, dshift, elementary, gradients, jexp, jlog, jsin,
                            jsqrt, jtanh, order1, seed, values)


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
    # values, gradients, order1 and dshift of an object ndarray (and of the
    # nested list it holds) agree with elementwise reads of the list
    d, shape, J = data
    idxs = list(itertools.product(*(range(k) for k in shape)))
    A = np.empty(shape, dtype=object)
    for idx in idxs:
        A[idx] = _at(J, idx)
    for X in (A, J):
        V, G, O = values(X), gradients(X, d), order1(X)
        assert V.shape == shape and G.shape == (d,) + shape
        assert O.shape == shape and O.dtype == object
        for idx in idxs:
            x = _at(J, idx)
            if isinstance(x, Jet):
                assert V[idx] == x.v
                assert [G[(m,) + idx] for m in range(d)] == list(x.g)
                assert (O[idx].v, O[idx].g, O[idx].h) == (x.v, x.g, None)
            else:
                assert V[idx] == x and O[idx] == x
                assert all(G[(m,) + idx] == 0.0 for m in range(d))
    if any(isinstance(x, Jet) and x.h is None for x in A.flat):
        with pytest.raises(SingularEvaluationError):
            dshift(A, d)
    # dshift needs order 2: read it on the same entries with order-1 jets
    # replaced by their values
    J = _without_order1(J)
    for idx in idxs:
        A[idx] = _at(J, idx)
    for X in (A, J):
        D = dshift(X, d)
        assert D.shape == (d,) + shape and D.dtype == object
        for idx in idxs:
            x = _at(J, idx)
            for m in range(d):
                y = D[(m,) + idx]
                if isinstance(x, Jet):
                    assert (y.v, y.g, y.h) == (x.g[m], x.h[m], None)
                else:
                    assert y == 0.0


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
