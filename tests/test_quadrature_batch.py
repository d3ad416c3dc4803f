"""Box integrals over node bundles against loops over per-point bundles.

Every box integral is one ``euler_lagrange.node_integrals`` call, which
evaluates its nodes in chunks (``geometry.node_chunks``) on array jets.
``integrate`` and ``domain_mean`` build one bundle over a chunk's nodes and
read it; ``action_value`` reads S_mix dvol off one bundle per chunk
(``smix_density_fast`` at the chunk); ``action_derivative`` reads one
bundle over the chunk's nodes inside the bump whose two members are g + tB
and g - tB, through ``geometry.smix_density``; ``volume`` evaluates the
metric of a chunk on order-1 jets and builds no bundle; the J_mix gradient
pairing (``pointwise_pairing.py``) assembles
the first variations of ``variations._RHS`` over one bundle per chunk
through ``integrate``.  The reference is written here (and in
``pointwise_pairing.py`` for the pairing): a loop over per-point bundles,
node by node.  Every integral is compared with it, nodes outside a
bump are checked to see the base metric bit for bit, B at node seeds must
be B at each node alone bit for bit (a bump's expressions run at the nodes
inside its box only), an evaluation error must surface exactly as the loop
raises it, naming its node, and every box integral refuses a box outside
the domain.  ``verify_bar_relation`` reads g, W and B once per chunk in
each of its two passes; its report must be the one that six box passes
give (``bar_relation.py``) bit for bit, and the bump's expressions run
twice at node seeds in one call.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import euler_lagrange as el
from mixedcurv import exprlang, gallery
from mixedcurv import variations as va
from mixedcurv.errors import DomainError, InvalidArgumentError, SingularEvaluationError
from mixedcurv.geometry import PointGeometry, node_chunks, smix_density_fast
from mixedcurv.jets import dense, gradients, seed, value_of, values
from mixedcurv.structure import load_structure
from bar_relation import bar_relation_by_passes, derivative_by_two_bundles
from block_scaling import perp_scaled_metric
from pointwise_pairing import jmix_gradient_pairing, pairing_by_points
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
        fn = perp_scaled_metric(s, factor, base_metric_fn=fn)
    smix, dens = node_chunks(pts, s.dim, lambda c: np.stack(
        smix_density_fast(s, c, fn), axis=1)).T
    assert smix.shape == dens.shape == (count,)
    for k, pt in enumerate(pts):
        s0, d0 = smix_density_fast(s, pt, fn)
        assert abs(smix[k] - s0) <= 1e-12 * max(1.0, abs(s0))
        assert abs(dens[k] - d0) <= 1e-12 * d0


def _loop_integral(s, q, fn, reader=lambda g: 1.0):
    pts, wts = el.grid_points(q)

    def node(pt, w):
        g = PointGeometry(s, pt, metric_fn=fn)
        return g.volume_density * reader(g) * w

    return el.pairwise_sum(node(pt, w) for pt, w in zip(pts, wts))


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
        assert el.volume(s, q, fn) == pytest.approx(_loop_integral(s, q, fn), rel=1e-12)
        star = lambda g: el.s_star(g, "perp")
        want = _loop_integral(s, q, fn, star)
        scale = _loop_integral(s, q, fn, lambda g: abs(star(g)))
        assert abs(el.integrate(s, star, q, fn) - want) <= 1e-12 * max(1.0, scale)
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


# A bump in (-0.5, 0.5)^3 whose last entry has a pole at x0 = 0.7, outside
# the box: nodes inside it, outside it, on a face (outside: the test is
# strict) and at the pole, then all outside and all inside.
POLE_BOX = ((-0.5, 0.5),) * 3
POLE_NODES = {
    "straddling": [[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.5, 0.1, 0.2],
                   [0.2, -0.3, 0.1], [-0.9, 0.2, 0.0], [0.1, 0.45, -0.2]],
    "outside": [[0.7, 0.0, 0.0], [0.6, 0.1, 0.1], [0.5, 0.0, 0.0]],
    "inside": [[0.0, 0.0, 0.0], [0.2, -0.3, 0.1]],
}


def _bit_equal(a, b):
    return all((x is None and y is None) or (
        x is not None and y is not None and x.shape == y.shape and x.tobytes() == y.tobytes())
        for x, y in zip((a.v, a.g, a.h), (b.v, b.g, b.h)))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("klass", ["perp", "tan", "general"])
def test_node_seed_B_matches_B_at_each_node(klass, project, order):
    # B at node seeds is B at each node alone (a batch of one node), bit for
    # bit: zero outside the box, where nothing is evaluated, so the pole
    # there raises neither at node seeds nor at a point
    s = _structure("r3_contact")
    v = va.random_variation(s, klass, seed=5, box=POLE_BOX)
    raw = [row[:] for row in v.raw]
    raw[2][2] = exprlang.parse("1/(x0 - 0.7)", s.dim)
    v = dataclasses.replace(v, raw=raw, project=project)
    with pytest.raises(InvalidArgumentError):
        v.raw_at(seed(np.array(POLE_NODES["straddling"]), order))
    for pts in map(np.array, POLE_NODES.values()):
        B = dense(v.B_at(seed(pts, order)), s.dim)
        for k, pt in enumerate(pts):
            assert _bit_equal(B[k], dense(v.B_at(seed(pts[k:k + 1], order)), s.dim)[0])
            if not va._inside(pt, POLE_BOX):
                assert _bit_equal(B[k], dense(v.B_at(seed(pt, order)), s.dim))
                assert not B[k].v.any() and not B[k].g.any()


def test_a_bump_is_evaluated_at_its_support_nodes_only(monkeypatch):
    # the quadrature benchmark's configuration: a grid-6 box and a bump over
    # 3 cells per axis, so 27 of the 216 nodes lie inside the bump
    s = _structure("r3_contact")
    lo, w = -0.65, 1.3 / 6
    q = el.QuadratureSpec(box=((lo, -lo),) * 3, grid=6)
    v = va.random_variation(s, "perp", seed=3, box=((lo + w, lo + 4 * w),) * 3)
    sizes, run = [], exprlang.Program.run

    def counted(program, env, params=None):
        if program is v._program and np.ndim(value_of(env[0])):   # at node seeds
            sizes.append(np.size(value_of(env[0])))
        return run(program, env, params)

    monkeypatch.setattr(exprlang.Program, "run", counted)
    va.verify_bar_relation(s, v, q, sstar_grid=3)
    # the grid is one node chunk, and each of the two passes reads B once
    assert sizes == [27, 27]


def _bar_setup(key, grid, cells):
    """A box at 65% of the domain with a bump over the cells from the first
    to the ``cells``-th on each axis, so some nodes lie outside it."""
    s = _structure(key)
    box = tuple((0.5 * (lo + hi) - 0.325 * (hi - lo), 0.5 * (lo + hi) + 0.325 * (hi - lo))
                for lo, hi in s.domain)
    bump = tuple((lo + (hi - lo) / grid, lo + (1 + cells) * (hi - lo) / grid) for lo, hi in box)
    return s, va.random_variation(s, "perp", seed=3, box=bump), el.QuadratureSpec(
        box=box, grid=grid)


@pytest.mark.parametrize("key,grid,cells", [
    ("r3_contact", 6, 3), ("s3_hopf", 6, 3), ((1, 3, 1), 4, 2),
    ((2, 4, 2), 5, 3),      # 625 nodes in three chunks
])
def test_bar_relation_is_the_six_pass_composition_bit_for_bit(key, grid, cells):
    s, v, q = _bar_setup(key, grid, cells)
    want = bar_relation_by_passes(s, v, q, sstar_grid=3)
    got = va.verify_bar_relation(s, v, q, sstar_grid=3)
    assert got.keys() == want.keys()
    for k, x in want.items():
        assert np.float64(got[k]).tobytes() == np.float64(x).tobytes(), k
    dj = va.action_derivative(s, v, q, "J_mix", t_step=1e-3, enforce_support=False)
    assert dj == derivative_by_two_bundles(s, v, q, 1e-3)


@pytest.mark.parametrize("key,box,vseed,degree", [
    ("r3_contact", ((-0.6, 0.6),) * 3, 7, 1),
    ((6, 3, 1), ((-0.45, 0.45),) * 3, 1, 2),
])
def test_gradient_pairing_matches_the_per_point_loop(key, box, vseed, degree):
    s = _structure(key)
    v = va.random_variation(s, "perp", seed=vseed, box=box, degree=degree)
    q = el.QuadratureSpec(box=box, grid=4)
    want = pairing_by_points(s, v, q)
    assert abs(jmix_gradient_pairing(s, v, q) - want) <= 1e-12 * abs(want)


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
        (lambda: el.volume(s, q), lambda: _loop_integral(s, q, None)),
        (lambda: el.integrate(s, lambda g: g.smix, q),
         lambda: _loop_integral(s, q, None, lambda g: g.smix)),
        (lambda: va.action_derivative(s, v, q, "J_mix", enforce_support=False),
         lambda: _loop_derivative(s, v, q, 1e-3)),
        (lambda: jmix_gradient_pairing(s, v, q), lambda: pairing_by_points(s, v, q)),
        (lambda: va.verify_bar_relation(s, v, q), lambda: _loop_integral(s, q, None)),
    ]
    for batched, loop in calls:
        with pytest.raises(SingularEvaluationError) as want:
            loop()
        with pytest.raises(SingularEvaluationError) as got:
            batched()
        assert str(got.value) == str(want.value)
        assert got.value.point == want.value.point
        assert len(got.value.point) == s.dim       # the error names its node


def test_a_degenerate_metric_has_no_volume_element():
    # det g = x0 vanishes at the trapezoid nodes with x0 = 0
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = x0\nmetric 1 1 = 1\n"
                       "metric 2 2 = 1\ndtilde 0 = 0, 1, 0\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    q = el.QuadratureSpec(box=((-0.5, 0.5),) * 3, grid=3, rule="trapezoid")
    node = (0.0, -0.5, -0.5)
    with pytest.raises(SingularEvaluationError) as want:
        PointGeometry(s, node).volume_density
    assert str(want.value) == f"degenerate metric at point {node}"
    for call in (lambda: el.volume(s, q), lambda: el.integrate(s, lambda g: 1.0, q),
                 lambda: el.domain_mean(s, lambda g: 1.0, q)):
        with pytest.raises(SingularEvaluationError) as got:
            call()
        assert str(got.value) == str(want.value)
        assert got.value.point == node


def test_a_non_finite_metric_raises_in_volume_as_in_integrate():
    s = gallery.load_entry("r3_contact").structure

    def fn(xs):     # NaN past x0 = 0.85
        return s.metric_at(xs) * np.where(values(xs[0]) > 0.85, np.nan, 1.0)[..., None, None]

    q = el.QuadratureSpec(box=((0.5, 0.95), (-0.5, 0.5), (-0.5, 0.5)), grid=4)
    for call in (lambda: el.volume(s, q, metric_fn=fn),
                 lambda: el.integrate(s, lambda g: 1.0, q, metric_fn=fn)):
        with pytest.raises(SingularEvaluationError,
                           match="non-finite intermediate value at point") as got:
            call()
        assert got.value.point == pytest.approx((0.89375, -0.375, -0.375))


def test_every_box_integral_refuses_a_box_outside_the_domain():
    s = gallery.load_entry("r3_contact").structure
    q = el.QuadratureSpec(box=((5, 6),) * 3, grid=3)
    v = va.random_variation(s, "perp", seed=3, box=q.box)
    calls = [
        lambda: el.integrate(s, lambda g: 1.0, q),
        lambda: el.domain_mean(s, lambda g: 1.0, q),
        lambda: el.volume(s, q),
        lambda: va.action_value(s, q, "J_mix"),
        lambda: va.action_derivative(s, v, q, "J_mix"),
        lambda: jmix_gradient_pairing(s, v, q),
        lambda: va.verify_bar_relation(s, v, q),
    ]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == (
            f"box [(5, 6), (5, 6), (5, 6)] leaves the domain box {s.domain}")


def test_node_integrals_is_the_one_box_integrator():
    # every box integral of the package is a chunk function over
    # node_integrals: no other function builds a grid or sums over it
    calls = set()
    for path in sorted(Path(el.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                name = isinstance(n, ast.Call) and (
                    getattr(n.func, "id", None) or getattr(n.func, "attr", None))
                if name in ("grid_points", "pairwise_sum"):
                    calls.add((path.name, getattr(top, "name", None), name))
    assert calls == {("euler_lagrange.py", "node_integrals", "grid_points"),
                     ("euler_lagrange.py", "node_integrals", "pairwise_sum")}
