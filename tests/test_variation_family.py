"""Variation families on dense jet fields against scalar-Jet references.

``tangent_projector_jets``, ``MetricVariation.B_at`` and the family metric
functions run on array jets, at a point and on node batches alike.  The
object-array path over scalar ``Jet``s they replaced is kept here as the
reference; it evaluates the spec's expressions itself, not through
``struct.metric_at`` and ``dtilde_at``.  Every metric function returns one
field: a float array at a float point, an array jet at scalar seeds and one
with the node axis first at node seeds.  ``verify_first_variation``
evaluates g, the span and B once per point and builds one bundle from them,
member 0 at g for the right-hand side and the signed steps after it; it is
checked against bundles built through ``v.metric_fn(s)`` and a right-hand
side built from the reference B, and bit for bit against the two-bundle
composition it replaced (``first_variation.py``), and it builds one frame.  ``evolve_frame`` steps the D-tilde rows
alone and takes each RK4 step of the complement rows as one matrix; it is
checked against a loop that steps every frame row through its stage
derivative.
"""

from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import euler_lagrange as el
from mixedcurv import exprlang, gallery, geometry, jets
from mixedcurv import variations as va
from mixedcurv.errors import SpecializationError
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import ArrayJet, dense, gradients, seed, values
from mixedcurv.structure import load_structure
from bar_relation import bar_family_metric
from block_scaling import perp_scaled_metric
from critical_metrics import conformal_metric
from first_variation import first_variation_by_two_bundles
from scalar_inverse import scalar_matrix_inverse
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
    ginv = np.array(scalar_matrix_inverse(Wg @ W.T, len(W)), dtype=object)
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


@pytest.mark.parametrize("klass", ["perp", "tan", "general"])
@pytest.mark.parametrize("key", ["r3_contact", "lorentz_product", (2, 4, 2, True)])
def test_float_point_reads_stay_floats(key, klass, monkeypatch):
    # at a float point the projector and B are float matrices, with no jet
    # product on the way, and they are the values of the order-2 reads
    s = _structure(key)
    v = va.random_variation(s, klass, seed=5)
    product = jets._product
    for pt in _nodes(s, 3, 2):
        pt, xs = list(pt), seed(pt, 2)
        for read in (lambda x: va.tangent_projector_jets(s, x), v.B_at,
                     lambda x: v.B_at(x, gmat=s.metric_at(x), span=s.dtilde_at(x))):
            at_seeds = values(read(xs))
            monkeypatch.setattr(jets, "_product", None)
            at_point = read(pt)
            monkeypatch.setattr(jets, "_product", product)
            assert type(at_point) is np.ndarray and at_point.dtype == float
            assert np.all(np.abs(at_point - at_seeds) <= 1e-15 * np.max(np.abs(at_seeds)))


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
               (v.metric_fn(0.1), (d, d)), (perp_scaled_metric(s, 1.5), (d, d)),
               (bar_family_metric(s, v, q, 0.1)[0], (d, d)),
               (conformal_metric(s, exprlang.parse("x1", d)), (d, d))]
        pts = _nodes(s, 5, 1)
        for fn, shape in fns:
            at_point = fn(list(pts[0]))
            assert type(at_point) is np.ndarray and at_point.dtype == float
            assert at_point.shape == shape
            at_seeds = fn(seed(pts[0], 2))
            assert isinstance(at_seeds, ArrayJet) and at_seeds.shape == shape
            assert at_seeds.h.shape == (d, d) + shape
            assert values(at_seeds).tolist() == at_point.tolist()
            at_nodes = fn(seed(pts, 2))
            assert isinstance(at_nodes, ArrayJet) and at_nodes.shape == (5,) + shape
            assert at_nodes.g.shape == (d, 5) + shape
            assert at_nodes.h.shape == (d, d, 5) + shape
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


def _bits(x):
    """A report field as bytes: floats by their bits, lists item by item."""
    if isinstance(x, list):
        return [_bits(y) for y in x]
    return x if x is None or isinstance(x, bool) else np.float64(x).tobytes()


@pytest.mark.parametrize("key,inside", [
    ("r3_contact", True), ("s3_hopf", True), ("lorentz_product", True),
    ("r3_contact", False),                  # B vanishes outside the bump's box
    ((2, 4, 2), True), ((4, 5, 2, True), True), ((6, 5, 3), True)])
def test_first_variation_is_the_two_bundle_composition_bit_for_bit(key, inside):
    s = _structure(key)
    pt = tuple(_nodes(s, 1, 5)[0] if inside else [0.9 * hi for _, hi in s.domain])
    for klass in ("perp", "tan"):
        v = va.random_variation(s, klass, seed=6, box=None if inside else _half_box(s))
        got = va.verify_first_variation(s, v, pt)
        want = first_variation_by_two_bundles(s, v, pt)
        assert got.keys() == want.keys()
        if not inside:
            assert all(rep.rhs == 0.0 for rep in got.values())
        for f, rep in want.items():
            for field in ("lhs_fd", "rhs", "discrepancies", "order", "verdict"):
                assert _bits(getattr(got[f], field)) == _bits(getattr(rep, field)), (f, field)


def test_first_variation_builds_one_frame(monkeypatch):
    s = _structure("r3_contact")
    v = va.random_variation(s, "perp", seed=6)
    calls, frame = [], geometry.orthonormal_frame

    def counted(*args, **kwargs):
        calls.append(np.shape(values(args[0])))
        return frame(*args, **kwargs)

    monkeypatch.setattr(geometry, "orthonormal_frame", counted)
    va.verify_first_variation(s, v, (0.1, 0.2, 0.3))
    # one frame per member of the one bundle: g and the six signed steps
    assert calls == [(7, 3, 3)]


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
    for steps in (1, 32, 64):
        path, drift = va.evolve_frame(s, v, pt, t_end=0.1, steps=steps)
        frame, want = loop_evolve_frame(s, v, pt, t_end=0.1, steps=steps)
        assert len(path) == steps + 1
        assert np.max(np.abs(path[-1] - frame)) <= 1e-13, steps
        assert abs(drift - want) <= 1e-13, steps
        assert np.max(np.abs(path[-1] - path[0])) > 1e-5    # the frame moved


def test_degenerate_family_raises_in_evolve_frame():
    # B = -g on the complement block: g + tB is singular at t = 1
    s = load_structure("dim = 2\ndtilde_dim = 1\nmetric 0 0 = 1\nmetric 1 1 = 1\n"
                       "dtilde 0 = 1, 0\ndomain = [-1, 1] x [-1, 1]\n")
    zero, minus = exprlang.const(0.0), exprlang.const(-1.0)
    v = va.MetricVariation(s, [[zero, zero], [zero, minus]], "perp")
    with pytest.raises(SpecializationError, match="family degenerates"):
        va.evolve_frame(s, v, (0.1, 0.1), t_end=1.0, steps=4)
    # B = -g on the D-tilde block, a tan variation: the D-tilde rows step
    # without B-sharp, yet the batched solve still ends the family at t = 1
    v = va.MetricVariation(s, [[minus, zero], [zero, zero]], "tan")
    with pytest.raises(SpecializationError, match="family degenerates"):
        va.evolve_frame(s, v, (0.1, 0.1), t_end=1.0, steps=4)
