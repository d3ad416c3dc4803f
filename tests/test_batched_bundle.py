"""Batched bundles against per-point bundles.

``PointGeometry`` takes its batch from the leading axes of the metric field
that its metric function returns at the bundle's seeds: a batch of metrics
at one point, or the node axis of an (N, d) array of nodes.  Every member
of the bundle is written on trailing axes, so member k of a batch must give
what a per-point bundle of the k-th metric, or at the k-th node, gives.
This holds for every public member of ``PointGeometry`` and of its two
views (methods take their arguments from the same bundle) and for the
first-variation right-hand sides ``_RHS.rhs`` of every formula, with each
member's own pivot order and signs, and with the same error where the
per-point bundle raises one.  A degenerate member fails a batch of metrics
as the per-point bundle fails, naming the point; a node bundle names its
failing node, also where a metric expression divides by zero or
overflows there.  The identity suite reads a node bundle as it reads per-point bundles.  The frame-free chain and the density of a node bundle are
bit-identical to the per-point ones wherever the metric jets are.
"""

import warnings
from operator import attrgetter

import numpy as np
import pytest

from mixedcurv import exprlang, gallery
from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.errors import (DegenerateDistributionError, DomainError, MixedCurvError,
                              SingularEvaluationError)
from mixedcurv.geometry import (BlockView, PointGeometry, identity_suite_at, random_perp_field,
                                smix_density_fast)
from mixedcurv.jets import ArrayJet, as_field, concatenate, jexp, values
from mixedcurv.structure import DEGENERACY_TOL, load_structure
from gram_schmidt import float_pass_loop
from scalar_inverse import pivot_rows
from test_random_structures import seeded_structure

# the frame-free chain, bit-identical on a node bundle where the metric jets are
NODE_CHAIN = ("Gamma0", "Rcoord", "R04", "volume_density")
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


def _arguments(owner):
    """Arguments of the public methods of ``owner`` (a bundle or one of its
    views), taken from ``owner``'s own bundle, so that a batched bundle's
    fields carry its batch; the float vectors broadcast against it."""
    geom = owner.g if isinstance(owner, BlockView) else owner
    d = geom.d
    X, Y, Z = np.ones(d), np.arange(d) - 0.5, np.linspace(-1.0, 2.0, d) ** 2
    V, P = geom.tan.HJ, geom.tan.h_field
    args = {"riemann": (X, Y, Z), "sectional": (X, Y),
            "lam": (geom.tan.hb_full, geom.perp.alpha_b), "div_vector": (V, "tan"),
            "nabla_values": (P, "ull"), "div_12": (P, "perp"),
            "div_11": (geom.g1,), "to_frame02": (geom.g0,),
            "frame_pairing": (geom.tan.phi_h, geom.perp.phi_h),
            "nabla02_in_direction": (geom.g1, X),
            "pair_vec_12": (geom.tan.theta_b, geom.perp.Hb_frame),
            "project": (V,), "def_of": (V,), "delta_of": (V,)}
    if isinstance(owner, BlockView):
        args["flat"] = (owner.casorati,)
    return args


# the bundle's views, its memo of caller functions (``once``) and its inputs
# (``seeds``, the ``frameJ`` record, whose vectors and signs are the members
# ``framevecsJ`` and ``eps``): no formula of their own
PLAIN = {"batch", "seeds", "frameJ", "once", "tan", "perp", "g", "dual"}


def _outcome(read):
    """What ``read()`` returns, or the library error it raises."""
    try:
        return read()
    except MixedCurvError as exc:
        return exc


def _same(got, want, at, tol):
    """Member ``at`` of the batched value ``got`` against the per-point value
    ``want``: errors of one class and message, dicts key by key (but the
    point), tuples part by part."""
    if isinstance(want, MixedCurvError):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want.keys() - {"point"}:
            _same(got[key], want[key], at, tol)
    elif isinstance(want, tuple):
        for a, b in zip(got, want):
            _same(a, b, at, tol)
    else:
        _agree((got if isinstance(want, ArrayJet) else np.asarray(got, float))[at], want, tol)


def _check_members(big, ones, B_big, B_ones, tol):
    """Every public member of ``big`` and of its two views, and ``_RHS.rhs``
    of every formula, against the per-point bundles ``ones``: member k of the
    batch against ``ones[k]``.  ``B_big`` and ``B_ones`` are the variation
    fields at the seeds of each.  Returns the number of member checks."""
    checked = 0
    for k, one in enumerate(ones):
        assert one.batch == ()
        at = np.unravel_index(k, big.batch)
        for owner, ref in ((big, one), (big.tan, one.tan), (big.perp, one.perp)):
            args, ref_args = _arguments(owner), _arguments(ref)
            # a view's signs are an attribute of the view, not of its class
            for name in dir(type(owner)) + ["eps"] * isinstance(owner, BlockView):
                if name.startswith("_") or name in PLAIN:
                    continue

                def read(x, xargs):
                    member = getattr(x, name)
                    return member(*xargs.get(name, ())) if callable(member) else member

                _same(_outcome(lambda: read(owner, args)),
                      _outcome(lambda: read(ref, ref_args)), at, tol)
                checked += 1
        rhs, ref = va._RHS(big, B_big), va._RHS(one, B_ones[k])
        for f in va.FORMULAS:
            want = ref.rhs(f)
            assert type(want) is float
            _agree(rhs.rhs(f)[at], want, tol)
            checked += 1
    return checked


def _check_metric_batch(s, pt, fields, batch):
    """The bundle of the stacked fields, reshaped to ``batch``, against a
    per-point bundle of each field."""
    stacked = _stack(fields)
    if len(batch) == 2:
        stacked = concatenate([stacked[None, :batch[1]], stacked[None, batch[1]:]])
    big = PointGeometry(s, pt, metric_fn=lambda xs: stacked)
    assert big.batch == batch
    ones = [PointGeometry(s, pt, metric_fn=lambda xs, F=F: F) for F in fields]
    B = _variation(s, 5).B_at(big.seeds)
    assert _check_members(big, ones, B, [B] * len(ones), 1e-13) >= 60 * len(ones)
    for side in ("tan", "perp"):
        for name in SCALARS:
            x = getattr(getattr(big, side), name)
            assert isinstance(x, np.ndarray) and x.shape == batch
            assert type(getattr(getattr(ones[0], side), name)) is float


def _pivots_and_signs(s, pt, fields):
    span = values(s.dtilde_at(list(pt))).tolist()
    out = set()
    for F in fields:
        _, signs, pivots = float_pass_loop(values(F).tolist(), span, s.dim, DEGENERACY_TOL, pt)
        out.add((tuple(pivots), tuple(signs)))
    return out


STEPS = [(k, t) for k in range(3) for t in (0.3, -0.3)]


@pytest.mark.parametrize("key", gallery.list_entries() + [
    (1, 3, 1), (2, 4, 2, True), (3, 5, 2, True), (4, 6, 3)])
def test_batched_bundle_matches_per_point_bundles(key):
    s, pt = _structure(key)
    _check_metric_batch(s, pt, _members(s, pt, STEPS), (len(STEPS),))


def test_two_batch_axes():
    s, pt = _structure("nil4_flow")
    _check_metric_batch(s, pt, _members(s, pt, STEPS), (2, 3))


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
    _check_metric_batch(s, pt, fields, (len(fields),))


@pytest.mark.parametrize("bad,read,error,message", [
    # the span vector e0 is null under g = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), attrgetter("tan.norm_h"),
     DegenerateDistributionError, "distribution vector is null or dependent"),
    (np.zeros((3, 3)), attrgetter("GammaJ"), SingularEvaluationError, "singular metric"),
    # e1 completes the frame under g = diag(1, 1, 0), and the last candidate e2 is null
    (np.diag([1.0, 1.0, 0.0]), attrgetter("frameJ"), DegenerateDistributionError,
     "no non-null candidate for the orthogonal complement"),
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
    ones = [PointGeometry(s, pt) for pt in pts]
    for k, (pt, one) in enumerate(zip(pts, ones)):
        orders.add(pivot_rows(one.g0.tolist()))
        # The chain from equal metric jets is bit-identical.  The metric jets
        # themselves agree only to rounding where a spec expression calls an
        # elementary function: node seeds evaluate it with numpy's, a point's
        # scalar seeds with math's (codim1_coth_tanh's sinh and cosh differ in
        # the last bit), and the chain carries that difference along.
        exact = all(a.tobytes() == b.tobytes() for a, b in zip(
            (big.gJ[k].v, big.gJ[k].g, big.gJ[k].h), (one.gJ.v, one.gJ.g, one.gJ.h)))
        for name in NODE_CHAIN:
            _same_at_node(getattr(big, name)[k], getattr(one, name), exact)
        s0, d0 = smix_density_fast(s, pt)
        assert type(s0) is float and type(d0) is float
        _same_at_node(smix[k], s0, exact)
        _same_at_node(dens[k], d0, exact)
        _same_at_node(d0, one.volume_density, True)
        for side in ("tan", "perp"):
            _agree(el.s_star(big, side)[k], el.s_star(one, side), 1e-12)
    # every member within 1e-12 relative: node and point frames agree only to
    # rounding where the span calls an elementary function
    v = _variation(s, 5)
    assert _check_members(big, ones, v.B_at(big.seeds),
                          [v.B_at(one.seeds) for one in ones], 1e-12) >= 60 * len(ones)
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


def test_a_node_bundle_names_its_failing_node():
    # g_00 = x0 vanishes at the second node only: the span vector e0 is null
    # there, and the metric and the Gram matrix of the span are singular
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = x0\nmetric 1 1 = 1\n"
                       "metric 2 2 = 1\ndtilde 0 = 1, 0, 0\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.1, 0.2], [0.3, 0.0, 0.0]])
    for read, message in [
            (lambda: smix_density_fast(s, pts), "degenerate distribution"),
            (lambda: PointGeometry(s, pts).tan.norm_h,
             "distribution vector is null or dependent"),
            (lambda: PointGeometry(s, pts).ginvJ, "singular metric"),
            (lambda: PointGeometry(s, pts).volume_density, "degenerate metric"),
            (lambda: PointGeometry(s, pts).sectional(np.eye(3)[0], np.eye(3)[1]),
             "degenerate plane section")]:
        with pytest.raises(SingularEvaluationError) as err:
            read()
        assert err.value.point == (0.0, 0.1, 0.2)
        assert str(err.value) == f"{message} at point (0.0, 0.1, 0.2)"


def test_an_expression_error_names_its_failing_node():
    # 0.1 / x0 divides by zero at the second node only, as a bundle at that
    # node alone does
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = 1 + 0.1/x0\n"
                       "metric 1 1 = 1\nmetric 2 2 = 1\ndtilde 0 = 0, 0, 1\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.1, 0.2], [0.3, 0.0, 0.0]])
    for where in (pts, pts[1]):
        with pytest.raises(SingularEvaluationError) as err:
            PointGeometry(s, where).tan.norm_h
        assert err.value.point == (0.0, 0.1, 0.2)
        assert str(err.value) == "division by jet with zero value at point (0.0, 0.1, 0.2)"


@pytest.mark.parametrize("expr", ["1 + exp(800*x0)", "1 + x0*1e308*10"])
def test_an_overflow_names_its_failing_node(expr):
    # the entry overflows at the second node only, in exp or in a product:
    # the node bundle raises what a bundle at that node alone raises, and
    # numpy warns about neither
    s = load_structure(f"dim = 3\ndtilde_dim = 1\nmetric 0 0 = {expr}\n"
                       "metric 1 1 = 1\nmetric 2 2 = 1\ndtilde 0 = 0, 0, 1\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    pts = np.array([[0.1, 0.0, 0.0], [0.95, 0.1, 0.2], [0.15, 0.0, 0.0]])
    with pytest.raises(SingularEvaluationError) as want:
        PointGeometry(s, pts[1]).gJ
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularEvaluationError) as got:
            PointGeometry(s, pts).gJ
    assert got.value.point == (0.95, 0.1, 0.2)
    assert str(got.value) == str(want.value)


def _overflowing(s):
    """g times exp(800 x0): an OverflowError from the caller's own jet
    arithmetic where x0 > 0.89, outside any expression program."""
    return lambda xs: as_field([[jexp(800.0 * xs[0])]], xs) * s.metric_at(xs)


def _nan_where_large(s):
    """g, NaN where x0 > 0.9."""
    return lambda xs: s.metric_at(xs) * np.where(values(xs[0]) > 0.9, np.nan, 1.0)[..., None, None]


@pytest.mark.parametrize("metric_fn,message", [
    (_overflowing, "arithmetic error in the metric (OverflowError: math range error)"),
    (_nan_where_large, "non-finite intermediate value")])
def test_a_callers_metric_fails_as_the_structures_own(metric_fn, message):
    # a caller's metric function fails at the second node only: the node
    # bundle raises what a bundle at that node alone raises, naming the node
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = 1\nmetric 1 1 = 1\n"
                       "metric 2 2 = 1\ndtilde 0 = 0, 0, 1\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    pts = np.array([[0.1, 0.0, 0.0], [0.95, 0.1, 0.2], [0.15, 0.0, 0.0]])
    for where in (pts[1], pts):
        with pytest.raises(SingularEvaluationError) as err:
            PointGeometry(s, where, metric_fn=metric_fn(s)).tan.norm_h
        assert err.value.point == (0.95, 0.1, 0.2)
        assert str(err.value) == f"{message} at point (0.95, 0.1, 0.2)"
    assert PointGeometry(s, pts[::2], metric_fn=metric_fn(s)).tan.norm_h.shape == (2,)


@pytest.mark.parametrize("key", gallery.list_entries() + [
    (1, 3, 1), (2, 4, 2, True), (3, 5, 2, True), (4, 6, 3)])
def test_identity_suite_reads_a_node_bundle(key):
    s = _structure(key)[0]
    pts = np.array(s.interior_points(7, 5))
    big = PointGeometry(s, pts)
    suite, xi = identity_suite_at(big), random_perp_field(big, 7)
    for k, pt in enumerate(pts):
        one = PointGeometry(s, pt)
        want = identity_suite_at(one)
        assert suite.keys() == want.keys()
        for name, value in want.items():
            assert suite[name].shape == (len(pts),)
            assert abs(suite[name][k] - value) <= 1e-12 * max(1.0, abs(value)), name
        _agree(xi[k], random_perp_field(one, 7), 1e-12)
