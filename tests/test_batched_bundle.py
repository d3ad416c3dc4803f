"""Batched bundles against per-point bundles.

``PointGeometry`` takes its batch from the leading axes of the metric field
that its metric function returns at the bundle's seeds: a batch of metrics
at one point, or the node axis of an (N, d) array of nodes.  Member k of a
batch of metrics must give what a per-point bundle of the k-th metric gives,
on every field and scalar of the batched chain, with each member's own
pivot order and signs; a degenerate member fails the batch as the per-point
bundle fails; and every other member of the bundle refuses a batch.  Node k
of a node bundle must give what a per-point bundle at node k gives on the
frame-free chain, the density ``smix_density_fast``, the frame-based
curvature (``R4``, ``ricci_frame``, ``smix`` and the partial Ricci tensors
``r``), the mean curvature fields ``HJ`` and their divergences ``div_H`` on
both blocks, and the starred scalars.
"""

from operator import attrgetter

import numpy as np
import pytest

from mixedcurv import exprlang, gallery
from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.errors import (DegenerateDistributionError, DomainError,
                              SingularEvaluationError, SpecializationError)
from mixedcurv.geometry import BlockView, PointGeometry, smix_density_fast
from mixedcurv.jets import ArrayJet, concatenate, values
from mixedcurv.structure import DEGENERACY_TOL, _float_pass, load_structure
from scalar_inverse import pivot_rows
from test_random_structures import seeded_structure

# the frame-free members of the chain: all that a node bundle is asked for
NODE_CHAIN = ("Gamma0", "Rcoord", "R04", "volume_density")
# the frame-based curvature
CURVATURE = ("R4", "ricci_frame", "smix")
GEOM_CHAIN = ("gJ", "ginvJ", "GammaJ", "framevecsJ", "eps", "frame1", "flat1",
              "nabla_frame", "g0", "ginv0", "g1", "hfr") + NODE_CHAIN + CURVATURE
VIEW_CHAIN = ("frame1", "flat1", "nabla_EE", "ffJ", "h", "T", "HJ", "H0", "norm_h",
              "norm_T", "gHH", "s_ex", "div_H", "r")
SCALARS = ("norm_h", "norm_T", "gHH", "s_ex", "div_H")

# a chart whose metric inverse takes its first pivot in row 0 where
# |0.5 + x0| > |1 + 0.1 x2| and in row 1 elsewhere
PIVOT_SPEC = """dim = 3
dtilde_dim = 1
metric 0 0 = 0.5 + x0
metric 0 1 = 1 + 0.1*x2
metric 1 1 = 0.3 + x1^2
metric 2 2 = 1 + 0.2*sin(x0)
dtilde 0 = 1, 0.2, 0.1*x1
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""

# a Lorentzian chart where g + B swaps the causal character of the span
# vector and of a complement vector, so the members differ in their signs
SWAP_SPEC = """dim = 3
dtilde_dim = 1
metric 0 0 = -1 + 0.1*x1^2
metric 0 1 = 0.05*x2
metric 1 1 = 1 + 0.1*sin(x0)
metric 2 2 = 1
dtilde 0 = 1, 0.2, 0.1*x1
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""


def _structure(key):
    if key == "swap":
        return load_structure(SWAP_SPEC), (0.1, 0.2, -0.3)
    if key == "pivots":
        return load_structure(PIVOT_SPEC), None
    if isinstance(key, str):
        s = gallery.load_entry(key).structure
        return s, s.interior_points(1, 3)[0]
    return seeded_structure(*key)


def _variation(s, k):
    """Variation k of a batch: a general random one, or for k = -1 the
    constant B = diag(2, -2, 0), which on the swap chart makes x0 spacelike
    and x1 timelike at steps near 1."""
    if k >= 0:
        return va.random_variation(s, "general", seed=k)
    c = exprlang.const
    raw = [[c(2.0), c(0.0), c(0.0)], [c(0.0), c(-2.0), c(0.0)], [c(0.0)] * 3]
    return va.MetricVariation(s, raw, "general", project=False)


def _members(s, pt, steps):
    """The metric fields g + t_k B_k at the point's seeds, one per (variation
    index, step) of ``steps``."""
    geom = PointGeometry(s, pt)
    return [geom.gJ + t * _variation(s, k).B_at(geom.seeds, gmat=geom.gJ) for k, t in steps]


def _stack(fields):
    return concatenate([F[None] for F in fields])


def _agree(got, want, tol=1e-13):
    if isinstance(want, tuple):
        for a, b in zip(got, want):
            _agree(a, b, tol)
        return
    parts = ((got.v, want.v), (got.g, want.g)) if isinstance(want, ArrayJet) else (
        (got, want),)
    if isinstance(want, ArrayJet) and want.h is not None:
        parts += ((got.h, want.h),)
    for a, b in parts:
        a, b = np.asarray(a, float), np.asarray(b, float)
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=tol, atol=tol), np.max(np.abs(a - b))


def _member(x, k):
    return tuple(_member(y, k) for y in x) if isinstance(x, tuple) else x[k]


def _check_members(s, pt, fields, batch):
    """The bundle of the stacked fields, reshaped to ``batch``, against a
    per-point bundle of each field."""
    stacked = _stack(fields)
    if len(batch) == 2:
        stacked = concatenate([stacked[None, :batch[1]], stacked[None, batch[1]:]])
    big = PointGeometry(s, pt, metric_fn=lambda xs: stacked)
    assert big.batch == batch
    for k, F in enumerate(fields):
        at = np.unravel_index(k, batch)
        one = PointGeometry(s, pt, metric_fn=lambda xs, F=F: F)
        assert one.batch == ()
        for name in GEOM_CHAIN:
            _agree(_member(getattr(big, name), at), getattr(one, name))
        for side in ("tan", "perp"):
            view, ref = getattr(big, side), getattr(one, side)
            _agree(view.eps[at], ref.eps)
            for name in VIEW_CHAIN:
                _agree(_member(getattr(view, name), at), getattr(ref, name))
    for side in ("tan", "perp"):
        for name in SCALARS:
            x = getattr(getattr(big, side), name)
            assert isinstance(x, np.ndarray) and x.shape == batch
            assert type(getattr(getattr(one, side), name)) is float


def _pivots_and_signs(s, pt, fields):
    span = values(s.dtilde_at(list(pt))).tolist()
    out = set()
    for F in fields:
        _, signs, pivots = _float_pass(values(F).tolist(), span, s.dim, DEGENERACY_TOL, pt)
        out.add((tuple(pivots), tuple(signs)))
    return out


STEPS = [(k, t) for k in range(3) for t in (0.3, -0.3)]


@pytest.mark.parametrize("key", gallery.list_entries() + [
    (1, 3, 1), (2, 4, 2, True), (3, 5, 2, True), (4, 6, 3)])
def test_batched_bundle_matches_per_point_bundles(key):
    s, pt = _structure(key)
    _check_members(s, pt, _members(s, pt, STEPS), (len(STEPS),))


def test_two_batch_axes():
    s, pt = _structure("nil4_flow")
    _check_members(s, pt, _members(s, pt, STEPS), (2, 3))


@pytest.mark.parametrize("key,steps", [
    ("lorentz_product", STEPS + [(3, 0.3)]),
    ((3, 5, 2, True), STEPS),
    ("swap", [(-1, 0.0), (-1, 0.3), (-1, 1.0), (0, 0.3), (-1, 1.2)]),
])
def test_members_of_one_batch_take_their_own_pivots_and_signs(key, steps):
    s, pt = _structure(key)
    fields = _members(s, pt, steps)
    keys = _pivots_and_signs(s, pt, fields)
    assert len(keys) >= 3
    if key == "swap":
        assert len({signs for _, signs in keys}) >= 2
    _check_members(s, pt, fields, (len(fields),))


@pytest.mark.parametrize("bad,read,error,message", [
    # the span vector e0 is null under g = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), attrgetter("tan.norm_h"),
     DegenerateDistributionError, "distribution vector is null or dependent"),
    (np.zeros((3, 3)), attrgetter("GammaJ"), SingularEvaluationError, "singular metric"),
])
def test_a_degenerate_member_fails_the_batch_as_at_one_point(bad, read, error, message):
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = 1\nmetric 1 1 = 1\n"
                       "metric 2 2 = 1\ndtilde 0 = 1, 0, 0\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    pt = (0.1, 0.2, 0.3)
    g = PointGeometry(s, pt).gJ
    bad_field = g * 0.0 + bad
    with pytest.raises(error) as one:
        read(PointGeometry(s, pt, metric_fn=lambda xs: bad_field))
    batch = _stack([g, bad_field, 2.0 * g])
    with pytest.raises(error) as many:
        read(PointGeometry(s, pt, metric_fn=lambda xs: batch))
    assert str(many.value) == str(one.value)
    assert message in str(many.value)
    assert many.value.point == one.value.point == pt


def _same_at_node(got, want, exact):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want))), (
            np.max(np.abs(got - want)))


@pytest.mark.parametrize("key", gallery.list_entries() + [
    (1, 3, 1), (2, 4, 2, True), (3, 5, 2, True), (4, 6, 3), "pivots"])
def test_node_bundle_matches_per_point_bundles(key):
    s = _structure(key)[0]
    pts = np.array(s.interior_points(7, 5))
    big = PointGeometry(s, pts)
    assert big.batch == (len(pts),)
    smix, dens = smix_density_fast(s, pts)
    assert smix.shape == dens.shape == (len(pts),)
    orders = set()
    for k, pt in enumerate(pts):
        one = PointGeometry(s, pt)
        assert one.batch == ()
        orders.add(pivot_rows(one.g0.tolist()))
        # The chain from equal metric jets is bit-identical.  The metric jets
        # themselves agree only to rounding where a spec expression calls an
        # elementary function: node seeds evaluate it with numpy's, a point's
        # scalar seeds with math's (codim1_coth_tanh's sinh and cosh differ in
        # the last bit), and the chain carries that difference along.
        exact = all(a.tobytes() == b.tobytes() for a, b in zip(
            (big.gJ.v[k], big.gJ.g[k], big.gJ.h[k]), (one.gJ.v, one.gJ.g, one.gJ.h)))
        for name in NODE_CHAIN:
            _same_at_node(getattr(big, name)[k], getattr(one, name), exact)
        s0, d0 = smix_density_fast(s, pt)
        assert type(s0) is float and type(d0) is float
        _same_at_node(smix[k], s0, exact)
        _same_at_node(dens[k], d0, exact)
        _same_at_node(d0, one.volume_density, True)
        # the frame-based members, within 1e-12 relative: node and point
        # frames agree only to rounding where the span calls an elementary
        # function
        for name in CURVATURE:
            _agree(getattr(big, name)[k], getattr(one, name), 1e-12)
        for side in ("tan", "perp"):
            view, ref = getattr(big, side), getattr(one, side)
            _agree(view.HJ[k], ref.HJ, 1e-12)
            _agree(view.div_H[k], ref.div_H, 1e-12)
            _agree(view.r[k], ref.r, 1e-12)
            _agree(el.s_star(big, side)[k], el.s_star(one, side), 1e-12)
    if key == "pivots":
        assert len(orders) >= 2


def test_node_bundle_checks_every_node_against_the_domain():
    s = _structure("r3_contact")[0]
    pts = np.array(s.interior_points(4, 5))
    PointGeometry(s, pts)
    pts[2, 1] = 50.0
    with pytest.raises(DomainError) as err:
        PointGeometry(s, pts)
    assert str(err.value).startswith(f"point {tuple(pts[2].tolist())} outside")
    PointGeometry(s, pts, check_domain=False)


def _arguments(geom):
    """Arguments for every public method outside the batched chain, taken
    from the per-point bundle ``geom``."""
    d = geom.d
    X, V, P = np.ones(d), geom.tan.HJ, geom.tan.h_field
    return {"riemann": (X, 2 * X, 3 * X), "sectional": (X, np.arange(d)),
            "lam": (np.zeros((d, d, d)),) * 2, "div_vector": (V, "tan"),
            "nabla12_values": (P,), "div_12": (P,),
            "div_11": (geom.g1,), "to_frame02": (np.eye(d),),
            "frame_pairing": (np.eye(d), np.eye(d)), "nabla02_in_direction": (geom.g1, X),
            "pair_vec_12": (np.zeros((d, d, d)), X), "project": (V,),
            "flat": (np.eye(geom.n),), "def_of": (V,), "delta_of": (V,)}


# the bundle's inputs, sizes, views and frame, a view's block data and the
# bundle's memo of caller functions (``once``): no formula of their own (the
# frame and the views' signs are checked above); and ``nabla_vec_values``,
# which runs on a batch and is checked through ``div_H`` (``div_vector`` is
# called in a block mode, which sums over one block's frame at one point)
PLAIN = {"struct", "point", "d", "n", "p", "seeds", "batch", "tan", "perp", "frameJ",
         "g", "side", "dual_side", "sl", "idx", "dim", "eps", "dual", "once",
         "nabla_vec_values"}


@pytest.mark.parametrize("key", ["r3_contact", "codim1_tau_riccati"])
def test_per_point_members_refuse_a_batch(key):
    s, pt = _structure(key)
    fields = _members(s, pt, STEPS[:2])
    stacked = _stack(fields)
    args = _arguments(PointGeometry(s, pt))
    checked = 0
    for cls, chain in ((PointGeometry, GEOM_CHAIN), (BlockView, VIEW_CHAIN)):
        for name in dir(cls):
            if name.startswith("_") or name in chain or name in PLAIN:
                continue
            for side in (("tan", "perp") if cls is BlockView else (None,)):
                big = PointGeometry(s, pt, metric_fn=lambda xs: stacked)
                owner = getattr(big, side) if side else big
                with pytest.raises(SpecializationError, match="computed at one point"):
                    member = getattr(owner, name)
                    if callable(member):
                        member(*args.get(name, ()))
                checked += 1
    assert checked >= 60
