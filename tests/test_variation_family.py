"""Variation families on dense jet fields against scalar-Jet references.

``tangent_projector_jets``, ``MetricVariation.B_at`` and the family metric
functions run on array jets, at a point and on node batches alike.  The
object-array path over scalar ``Jet``s they replaced is kept here as the
reference; it evaluates the spec's expressions itself, not through
``struct.metric_at`` and ``dtilde_at``.  Every metric function returns one
field: a float array at a float point, an array jet at scalar seeds and one
with the node axis first at node seeds.  ``verify_first_variation``
evaluates B once per point and builds every step bundle from it; it is
checked against bundles built through ``v.metric_fn(s)`` and a right-hand
side built from the reference B.  The array RK4 of ``evolve_frame`` is
checked against a loop over frame rows.
"""

from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import euler_lagrange as el
from mixedcurv import exprlang, gallery
from mixedcurv import variations as va
from mixedcurv.errors import SpecializationError
from mixedcurv.geometry import PointGeometry, jet_matrix_inverse
from mixedcurv.jets import ArrayJet, dense, gradients, seed, values
from mixedcurv.structure import load_structure
from test_random_structures import seeded_structure


def _structure(key):
    if isinstance(key, str):
        return gallery.load_entry(key).structure
    return seeded_structure(*key)[0]


def _nodes(s, count, seed_):
    rng = np.random.default_rng(seed_)
    lo, hi = np.array(s.domain).T
    return lo + (hi - lo) * (0.1 + 0.8 * rng.random((count, s.dim)))


def _half_box(s):
    return tuple((lo + 0.1 * (hi - lo), lo + 0.6 * (hi - lo)) for lo, hi in s.domain)


# ---------------------------------------------------------------------------
# the scalar-Jet reference: object arrays of Jets, one point at a time

def metric_rows(struct, xs):
    """The metric's entries at the scalars ``xs`` as nested lists, evaluated
    from the spec's expressions (an omitted entry is 0)."""
    d = struct.dim
    return [[exprlang.evaluate(struct.metric_upper[min(i, j), max(i, j)], list(xs),
                               struct.params)
             if (min(i, j), max(i, j)) in struct.metric_upper else 0.0
             for j in range(d)] for i in range(d)]


def dtilde_rows(struct, xs):
    """The spanning fields at the scalars ``xs`` as nested lists."""
    return [[exprlang.evaluate(c, list(xs), struct.params) for c in vec]
            for vec in struct.dtilde]


def reference_projector(struct, xs, g):
    W = np.array(dtilde_rows(struct, xs), dtype=object)    # n rows of d components
    Wg = W @ np.asarray(g, dtype=object)
    ginv = np.array(jet_matrix_inverse(Wg @ W.T, len(W)), dtype=object)
    return W.T @ (ginv @ Wg)


def reference_B(v, xs, g=None):
    B = v.raw_at(xs)
    if not v.project or v.klass == "general":
        return B
    if all(isinstance(x, float) and x == 0.0 for row in B for x in row):
        return B
    B = np.array(B, dtype=object)
    P = reference_projector(v.struct, xs, metric_rows(v.struct, xs) if g is None else g)
    PBP = P.T @ (B @ P)
    return PBP if v.klass == "tan" else B - PBP


def _parts(F):
    return F.v, F.g, F.h


def _agree(got, want, tol=1e-13):
    """Value, gradient and Hessian of two array jets of one shape."""
    for a, b in zip(_parts(got), _parts(want)):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=tol, atol=tol), np.max(np.abs(a - b))


def _node(F, k):
    """Node k of a field at node seeds; k is None for a field at a point."""
    return F if k is None else F[k]


STRUCTURES = ["r3_contact", "s3_hopf", "lorentz_product", "euclidean_product",
              "warped_product", (1, 3, 1), (2, 4, 2), (5, 3, 2, True)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(STRUCTURES), st.sampled_from(["perp", "tan", "general"]),
       st.integers(0, 10 ** 6), st.integers(0, 4), st.booleans())
def test_dense_projector_and_B_match_the_scalar_reference(key, klass, seed_, count, half):
    # count 0 is a single point, otherwise a batch of count nodes; with a
    # half box some nodes lie outside the bump
    s = _structure(key)
    d = s.dim
    v = va.random_variation(s, klass, seed=seed_ % 97, box=_half_box(s) if half else None)
    pts = _nodes(s, max(count, 1), seed_)
    if count == 0:
        xs, nodes = seed(pts[0], 2), [(None, pts[0])]
    else:
        xs, nodes = seed(pts, 2), list(enumerate(pts))
    P = va.tangent_projector_jets(s, xs)
    B, fam = dense(v.B_at(xs), d), dense(v.metric_fn(0.3)(xs), d)
    for k, pt in nodes:
        xk = seed(pt, 2)
        Bk = dense(reference_B(v, xk), d)
        _agree(_node(P, k), dense(reference_projector(s, xk, metric_rows(s, xk)), d))
        _agree(_node(B, k), Bk)
        _agree(_node(fam, k), dense(metric_rows(s, xk), d) + 0.3 * Bk)


def test_family_metric_functions_return_the_layout_of_their_seeds():
    # one field: a float array at a float point, an array jet of the
    # tensor's shape at scalar seeds, and one with the node axis first at
    # node seeds, also where the field is the same at every node (the
    # constant euclidean_product metric)
    for key in ("r3_contact", "euclidean_product"):
        s = _structure(key)
        d, n = s.dim, s.n
        v = va.random_variation(s, "perp", seed=3)
        q = el.QuadratureSpec(box=_half_box(s), grid=2)
        fns = [(s.metric_at, (d, d)), (s.dtilde_at, (n, d)), (v.B_at, (d, d)),
               (v.metric_fn(0.1), (d, d)), (va._perp_scaled_metric(s, 1.5), (d, d)),
               (va.bar_family_metric(s, v, q, 0.1)[0], (d, d)),
               (el.conformal_metric(s, exprlang.parse("x1", d)), (d, d))]
        pts = _nodes(s, 5, 1)
        for fn, shape in fns:
            at_point = fn(list(pts[0]))
            assert type(at_point) is np.ndarray and at_point.dtype == float
            assert at_point.shape == shape
            at_seeds = fn(seed(pts[0], 2))
            assert isinstance(at_seeds, ArrayJet) and at_seeds.shape == shape
            assert at_seeds.h.shape == shape + (d, d)
            assert values(at_seeds).tolist() == at_point.tolist()
            at_nodes = fn(seed(pts, 2))
            assert isinstance(at_nodes, ArrayJet) and at_nodes.shape == (5,) + shape
            assert at_nodes.g.shape == (5,) + shape + (d,)
            assert at_nodes.h.shape == (5,) + shape + (d, d)
            G = gradients(at_nodes, d)
            assert G.shape == (d, 5) + shape
            for k in (0, 3):
                at_k = fn(seed(pts[k], 2))
                assert np.allclose(values(at_nodes)[k], values(at_k), rtol=1e-13, atol=1e-15)
                assert np.allclose(G[:, k], gradients(at_k, d), rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# one B per point, shared by every step bundle

@pytest.mark.parametrize("key", ["r3_contact", "s3_hopf", "lorentz_product",
                                 (3, 4, 2, True)])
def test_shared_B_bundles_match_bundles_through_the_family(key):
    s = _structure(key)
    pt = tuple(_nodes(s, 1, 5)[0])
    for klass in ("perp", "tan"):
        v = va.random_variation(s, klass, seed=6)
        reps = va.verify_first_variation(s, v, pt)
        geom0 = PointGeometry(s, pt)
        rhs = va._RHS(geom0, dense(reference_B(v, geom0.seeds), s.dim))
        bundles = {x: PointGeometry(s, pt, metric_fn=v.metric_fn(x))
                   for h in va.FD_STEPS for x in (h, -h)}
        for f, rep in reps.items():
            want = rhs.rhs(f)
            assert abs(rep.rhs - want) <= 1e-12 * max(1.0, abs(want)), (f, rep.rhs, want)
            read = attrgetter(va.FORMULAS[f][1])
            for h, got in zip(va.FD_STEPS, rep.lhs_fd):
                fd = (read(bundles[h]) - read(bundles[-h])) / (2.0 * h)
                assert abs(got - fd) <= 1e-12 * 2000 * max(1.0, abs(fd)), (f, got, fd)


# ---------------------------------------------------------------------------
# the array RK4 against a loop over frame rows

def loop_evolve_frame(struct, v, point, t_end, steps):
    base = PointGeometry(struct, point)
    d, n = base.d, base.n
    frame = [list(map(float, vec)) for vec in base.F]
    signs = list(base.eps)
    B0 = values(v.B_at(list(point)))
    W = values(struct.dtilde_at(list(point))).T

    def rhs(t, fr):
        gt = base.g0 + t * B0
        Bsharp = np.linalg.inv(gt) @ B0
        E = np.array(fr[:n])

        def tan_part(x):
            return sum(signs[a] * float(E[a] @ gt @ x) * E[a] for a in range(n))

        out = []
        for a in range(n):
            if v.klass in ("tan", "general"):
                out.append(-0.5 * tan_part(Bsharp @ np.array(fr[a])))
            else:
                out.append(np.zeros(d))
        for i in range(n, d):
            if v.klass == "tan":
                out.append(np.zeros(d))
            else:
                bx = Bsharp @ np.array(fr[i])
                tanp = tan_part(bx)
                out.append(-0.5 * (bx - tanp) - tanp)
        return out

    ts = [k * t_end / steps for k in range(steps + 1)]
    drift = 0.0
    WtW = np.linalg.pinv(W.T @ W) @ W.T
    for k in range(steps):
        t0, t1 = ts[k], ts[k + 1]
        h = t1 - t0
        y = [np.array(row, float) for row in frame]
        k1 = rhs(t0, y)
        k2 = rhs(t0 + h / 2, [y[q] + h / 2 * k1[q] for q in range(d)])
        k3 = rhs(t0 + h / 2, [y[q] + h / 2 * k2[q] for q in range(d)])
        k4 = rhs(t1, [y[q] + h * k3[q] for q in range(d)])
        frame = [y[q] + h / 6 * (k1[q] + 2 * k2[q] + 2 * k3[q] + k4[q]) for q in range(d)]
        G = np.array(frame) @ (base.g0 + t1 * B0) @ np.array(frame).T
        drift = max(drift, float(np.max(np.abs(G - np.diag(signs)))))
        for a in range(n):
            resid = frame[a] - W @ (WtW @ frame[a])
            drift = max(drift, float(np.max(np.abs(resid))))
    return np.array(frame), drift


@pytest.mark.parametrize("key", ["r3_contact", "lorentz_product", "warped_product",
                                 (4, 4, 2)])
@pytest.mark.parametrize("klass", ["perp", "tan", "general"])
def test_array_rk4_matches_the_row_loop(key, klass):
    s = _structure(key)
    pt = tuple(_nodes(s, 1, 2)[0])
    v = va.random_variation(s, klass, seed=9)
    path, drift = va.evolve_frame(s, v, pt, t_end=0.1, steps=32)
    frame, want = loop_evolve_frame(s, v, pt, t_end=0.1, steps=32)
    assert np.max(np.abs(path[-1] - frame)) <= 1e-13
    assert abs(drift - want) <= 1e-13
    assert np.max(np.abs(path[-1] - path[0])) > 1e-5        # the frame moved


def test_degenerate_family_raises_in_evolve_frame():
    # B = -g on the complement block: g + tB is singular at t = 1
    s = load_structure("dim = 2\ndtilde_dim = 1\nmetric 0 0 = 1\nmetric 1 1 = 1\n"
                       "dtilde 0 = 1, 0\ndomain = [-1, 1] x [-1, 1]\n")
    zero, minus = exprlang.const(0.0), exprlang.const(-1.0)
    v = va.MetricVariation(s, [[zero, zero], [zero, minus]], "perp")
    with pytest.raises(SpecializationError, match="family degenerates"):
        va.evolve_frame(s, v, (0.1, 0.1), t_end=1.0, steps=4)
