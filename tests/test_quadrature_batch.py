"""The batched quadrature path against the scalar reference path.

``volume``, ``action_value`` and ``action_derivative`` evaluate their nodes in
batches on array jets (``geometry.smix_density_batch`` and friends).  The
scalar path, ``smix_density_fast`` and ``euler_lagrange._density`` node by
node, stays the reference: here every batched result is compared with a loop
over it, nodes outside a bump are checked to see the base metric bit for bit,
and an evaluation error must surface exactly as the loop raises it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import euler_lagrange as el
from mixedcurv import gallery
from mixedcurv import variations as va
from mixedcurv.errors import SingularEvaluationError
from mixedcurv.geometry import smix_density_batch, smix_density_fast
from mixedcurv.jets import gradients, seed, values
from mixedcurv.structure import load_structure
from test_random_structures import seeded_structure


def _structure(key):
    if isinstance(key, str):
        return gallery.load_entry(key).structure
    return seeded_structure(*key)[0]


STRUCTURES = ["r3_contact", "s3_hopf", (1, 3, 1), (2, 4, 2), (5, 3, 2, True)]


def _nodes(s, count, seed_):
    rng = np.random.default_rng(seed_)
    lo, hi = np.array(s.domain).T
    return lo + (hi - lo) * (0.1 + 0.8 * rng.random((count, s.dim)))


def _half_box(s):
    """A bump box over the lower-middle part of the domain: some nodes lie
    outside it."""
    return tuple((lo + 0.1 * (hi - lo), lo + 0.6 * (hi - lo)) for lo, hi in s.domain)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(STRUCTURES), st.integers(0, 10 ** 6), st.integers(1, 6),
       st.sampled_from([0.0, 0.04, -0.03]), st.sampled_from([1.0, 1.3]))
def test_batch_density_matches_scalar_density(key, seed_, count, t, factor):
    # the metric families of the bar relation: g + tB, then the complement
    # block scaled
    s = _structure(key)
    pts = _nodes(s, count, seed_)
    fn = None
    if t:
        v = va.random_variation(s, "perp", seed=seed_ % 97, box=_half_box(s))
        fn = v.metric_fn(t)
    if factor != 1.0:
        fn = va._perp_scaled_metric(s, factor, base_metric_fn=fn)
    smix, dens = smix_density_batch(s, pts, fn)
    assert smix.shape == dens.shape == (count,)
    for k, pt in enumerate(pts):
        s0, d0 = smix_density_fast(s, pt, fn)
        assert abs(smix[k] - s0) <= 1e-12 * max(1.0, abs(s0))
        assert abs(dens[k] - d0) <= 1e-12 * d0


def _loop_volume(s, q, fn):
    pts, wts = el.grid_points(q)
    return el.pairwise_sum(el._density(s, pt, fn) * w for pt, w in zip(pts, wts))


def _loop_action(s, q, fn):
    pts, wts = el.grid_points(q)
    return el.pairwise_sum(np.prod(smix_density_fast(s, pt, fn)) * w
                           for pt, w in zip(pts, wts))


def _loop_derivative(s, v, q, t):
    pts, wts = el.grid_points(q)
    fp, fm = v.metric_fn(t), v.metric_fn(-t)

    def node(pt, w):
        if not va._inside(pt, v.box):
            return 0.0
        return (np.prod(smix_density_fast(s, pt, fp))
                - np.prod(smix_density_fast(s, pt, fm))) * w

    return el.pairwise_sum(node(pt, w) for pt, w in zip(pts, wts)) / (2.0 * t)


@pytest.mark.parametrize("key", STRUCTURES[:4])
def test_quadrature_calls_match_a_loop_over_the_scalar_path(key):
    s = _structure(key)
    box = tuple((lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)) for lo, hi in s.domain)
    q = el.QuadratureSpec(box=box, grid=3 if s.dim > 3 else 4)
    w = np.array(box).T
    bump = tuple(zip(w[0] + 0.1 * (w[1] - w[0]), w[1] - 0.3 * (w[1] - w[0])))
    v = va.random_variation(s, "perp", seed=11, box=bump)
    for fn in (None, v.metric_fn(0.05)):
        assert va.volume(s, q, fn) == pytest.approx(_loop_volume(s, q, fn), rel=1e-12)
        want = _loop_action(s, q, fn)
        assert abs(va.action_value(s, q, "J_mix", fn) - want) <= 1e-12 * max(1.0, abs(want))
    t = 1e-3
    want = _loop_derivative(s, v, q, t)
    got = va.action_derivative(s, v, q, "J_mix", t_step=t, enforce_support=False)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)) * 0.5 / t


@pytest.mark.parametrize("klass", ["perp", "tan", "general"])
def test_nodes_outside_the_bump_see_the_base_metric_bit_for_bit(klass):
    s = _structure((1, 3, 1))
    v = va.random_variation(s, klass, seed=4, box=_half_box(s))
    pts = _nodes(s, 40, 8)
    outside = ~np.array([va._inside(pt, v.box) for pt in pts])
    assert 0 < outside.sum() < len(pts)
    xs = seed(pts, 2)
    B = v.B_at(xs)
    fam, base = v.metric_fn(0.07)(xs), s.metric_at(xs)
    # values read the node axis first; gradients read it after the
    # derivative index
    for read, at in ((values, outside),
                     (lambda J: gradients(J, s.dim), (slice(None), outside))):
        assert not read(B)[at].any()
        got, want = read(fam), read(base)
        assert got[at].tobytes() == want[at].tobytes()
    # inside the bump, every node agrees with the scalar evaluation
    for k in np.flatnonzero(~outside)[:3]:
        Bk = values(v.B_at(seed(pts[k], 2)))
        assert np.allclose(values(B)[k], Bk, rtol=1e-13, atol=1e-15)


# A pole at a quadrature node: grid 4 on [-0.5, 0.5] puts nodes at x0 = 0.125,
# and the square root turns non-positive for x0 <= -0.2.
POLES = {
    "division": "1 + 0.1/(x0 - 0.125)",
    "sqrt": "sqrt(x0 + 0.2)",
}


@pytest.mark.parametrize("kind", sorted(POLES))
def test_errors_surface_as_the_scalar_loop_raises_them(kind):
    s = load_structure(
        f"dim = 3\ndtilde_dim = 1\nmetric 0 0 = {POLES[kind]}\nmetric 1 1 = 1\n"
        "metric 2 2 = 1\nmetric 0 1 = 0.1*x2\ndtilde 0 = 1, 0, x1\n"
        "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    q = el.QuadratureSpec(box=((-0.5, 0.5),) * 3, grid=4)
    v = va.random_variation(s, "perp", seed=2, box=((-0.45, 0.45),) * 3)
    calls = [
        (lambda: va.action_value(s, q, "J_mix"), lambda: _loop_action(s, q, None)),
        (lambda: va.volume(s, q), lambda: _loop_volume(s, q, None)),
        (lambda: va.action_derivative(s, v, q, "J_mix", enforce_support=False),
         lambda: _loop_derivative(s, v, q, 1e-3)),
    ]
    for batched, loop in calls:
        with pytest.raises(SingularEvaluationError) as want:
            loop()
        with pytest.raises(SingularEvaluationError) as got:
            batched()
        assert str(got.value) == str(want.value)
        assert got.value.point == want.value.point
