import math
from operator import attrgetter

import numpy as np
import pytest

from mixedcurv import exprlang, gallery
from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.errors import (ClassificationError, InvalidArgumentError, SpecializationError,
                              SupportError)
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import value_of, values
from mixedcurv.structure import load_structure

from pointwise_pairing import jmix_gradient_pairing
from variation_checks import classify, verify_projection_lemma


def struct(name):
    return gallery.load_entry(name).structure


def zero_variation(s, klass="perp"):
    z = exprlang.const(0.0)
    return va.MetricVariation(s, [[z] * s.dim for _ in range(s.dim)], klass)


SWAPPED_R3 = """
name = r3_contact_swapped
dim = 3
dtilde_dim = 2
metric 0 0 = (1 + x1^2 + x2^2)/4
metric 0 1 = x2/4
metric 0 2 = -x1/4
metric 1 1 = 1/4
metric 2 2 = 1/4
dtilde 0 = 2, -2*x2, 2*x1
dtilde 1 = 0, 2, 0
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""


# ---------------------------------------------------------------------------
# classification

def test_classify_blocks():
    s = struct("euclidean_product")
    pts = s.interior_points(4, 1)
    for klass, zero_blocks in (("perp", ("tan",)), ("tan", ("perp", "mixed"))):
        v = va.random_variation(s, klass, seed=2)
        blocks = classify(v, pts)
        for b in zero_blocks:
            assert blocks[b] < 1e-14


def test_classify_rejects_mismatch():
    s = struct("euclidean_product")
    v = va.random_variation(s, "perp", seed=2)
    v.project = False
    v.klass = "tan"
    with pytest.raises(ClassificationError):
        classify(v, s.interior_points(3, 1))


def test_perp_class_keeps_mixed_block():
    # a variation with only a mixed block is a legitimate perp-variation
    s = struct("euclidean_product")
    raw = [[exprlang.const(0.0)] * 3 for _ in range(3)]
    raw[0][1] = raw[1][0] = exprlang.const(1.0)      # dx0 x dx1, D~ = span(d0)
    v = va.MetricVariation(s, raw, "perp", project=False)
    blocks = classify(v, s.interior_points(3, 1))
    assert blocks["tan"] < 1e-15 and blocks["mixed"] == pytest.approx(1.0)


def test_variation_support_confined_to_box():
    s = struct("r3_contact")
    box = tuple((-0.5, 0.5) for _ in range(3))
    v = va.random_variation(s, "perp", seed=9, box=box)
    q = el.QuadratureSpec(box=box, grid=4)
    va.check_support(s, v, q)
    shifted = el.QuadratureSpec(box=tuple((-0.25, 0.75) for _ in range(3)), grid=4)
    with pytest.raises(SupportError):
        va.check_support(s, v, shifted)


# ---------------------------------------------------------------------------
# frame evolution

def test_zero_variation_frame_constant():
    s = struct("r3_contact")
    for klass in ("perp", "tan", "general"):
        path, drift = va.evolve_frame(s, zero_variation(s, klass), (0.2, -0.3, 0.1))
        assert drift < 1e-15
        assert np.max(np.abs(path[0] - path[-1])) == 0.0, klass


@pytest.mark.parametrize("klass", ["perp", "tan", "general"])
def test_frame_evolution_keeps_orthonormality(klass):
    s = struct("r3_contact")
    for seedk in (5, 6):
        v = va.random_variation(s, klass, seed=seedk)
        _, drift = va.evolve_frame(s, v, (0.2, -0.3, 0.1), t_end=0.1, steps=64)
        assert drift < 1e-8


def test_tan_variation_keeps_perp_frame_fixed():
    s = struct("r3_contact")
    v = va.random_variation(s, "tan", seed=7)
    path, _ = va.evolve_frame(s, v, (0.1, 0.2, 0.3), t_end=0.1, steps=16)
    assert np.max(np.abs(path[0][1:] - path[-1][1:])) == 0.0
    assert np.max(np.abs(path[0][:1] - path[-1][:1])) > 1e-5


def test_perp_variation_keeps_dtilde_frame_fixed():
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=7)
    path, _ = va.evolve_frame(s, v, (0.1, 0.2, 0.3), t_end=0.1, steps=16)
    assert all(np.array_equal(path[0][:1], frame[:1]) for frame in path)
    assert np.max(np.abs(path[0][1:] - path[-1][1:])) > 1e-5


def test_frame_evolution_on_indefinite_metric():
    s = struct("lorentz_product")
    v = va.random_variation(s, "perp", seed=8)
    _, drift = va.evolve_frame(s, v, (0.0, 0.1, -0.2, 0.3), t_end=0.1, steps=64)
    assert drift < 1e-8


# ---------------------------------------------------------------------------
# first-variation formulas

def test_zero_variation_all_formulas_trivial():
    s = struct("r3_contact")
    reps = va.verify_first_variation(s, zero_variation(s), (0.1, 0.2, 0.3))
    for r in reps.values():
        assert r.verdict and abs(r.rhs) < 1e-14


@pytest.mark.parametrize("name", ["r3_contact", "s3_hopf", "warped_product",
                                  "codim1_coth_tanh"])
def test_first_variation_formulas_all_classes(name):
    s = struct(name)
    pts = s.interior_points(3, 13)
    for klass in ("perp", "tan"):
        for seedk in (1, 2):
            v = va.random_variation(s, klass, seed=seedk)
            for pt in pts:
                reps = va.verify_first_variation(s, v, pt)
                for f, r in reps.items():
                    assert r.verdict, (name, klass, f, r)


def test_first_variation_nonzero_T_side():
    # the swapped contact structure has T != 0, exercising the T-formulas
    s = load_structure(SWAPPED_R3)
    v = va.random_variation(s, "perp", seed=3)
    reps = va.verify_first_variation(s, v, (0.1, 0.1, 0.1))
    assert abs(reps["E-T-gen"].rhs) > 1e-3          # genuinely nonzero
    for f, r in reps.items():
        assert r.verdict, (f, r)
    vt = va.random_variation(s, "tan", seed=3)
    reps = va.verify_first_variation(s, vt, (0.1, 0.1, 0.1))
    assert abs(reps["E-T-gen2"].rhs) > 1e-3
    for f, r in reps.items():
        assert r.verdict, (f, r)


def test_first_variation_convergence_order():
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=4)
    reps = va.verify_first_variation(s, v, (0.2, -0.1, 0.25))
    seen = 0
    for r in reps.values():
        if r.order is not None:
            assert r.order >= 1.8, r
            seen += 1
    assert seen >= 3


def test_first_variation_homogeneous_entries_hit_noise_floor():
    # on the round sphere the measured variations match the formulas so
    # closely that no convergence order is resolvable; reports say so
    s = struct("s3_hopf")
    v = va.random_variation(s, "perp", seed=4)
    reps = va.verify_first_variation(s, v, (0.2, -0.1, 0.25))
    for r in reps.values():
        assert r.verdict
        assert r.order is None or r.order >= 1.8


def test_class_mismatch_raises():
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=4)
    with pytest.raises(ClassificationError):
        va.verify_first_variation(s, v, (0.1, 0.1, 0.1), formulas="E-T-gen2")
    vt = va.random_variation(s, "tan", seed=4)
    with pytest.raises(ClassificationError):
        jmix_gradient_pairing(s, vt, el.QuadratureSpec(box=box3(), grid=2))


def test_step_leaving_metric_cone_raises(monkeypatch):
    # B = -g on the complement block: g + tB has det (1 - t)^p there, under
    # half of det g at t = 0.9; the check runs before any right-hand side
    s = struct("euclidean_product")
    d = s.dim
    raw = [[exprlang.const(-1.0 if i == j else 0.0) for j in range(d)] for i in range(d)]
    v = va.MetricVariation(s, raw, "perp")

    def no_rhs(*args, **kwargs):
        raise AssertionError("right-hand side assembled before the cone check")

    monkeypatch.setattr(va, "_RHS", no_rhs)
    with pytest.raises(SpecializationError, match="leaves the metric cone"):
        va.verify_first_variation(s, v, (0.1, 0.1, 0.1), steps=(0.9, 0.5, 0.25))
    # B = 1.5 g-perp on r3_contact: |det| grows at both signs, but the -0.9
    # step flips the complement block's signature (frame signs [1, -1, -1])
    s = struct("r3_contact")
    raw = [[exprlang.const(1.5 if i == j else 0.0) for j in range(3)] for i in range(3)]
    v = va.MetricVariation(s, raw, "perp")
    with pytest.raises(SpecializationError, match="leaves the metric cone"):
        va.verify_first_variation(s, v, (0.1, 0.1, 0.1), steps=(0.9, 0.5, 0.25))


def test_formula_table_pinned():
    # the benchmark's references key on these names, in this order
    assert va.PERP_FORMULAS == ["E-tildeh-gen", "E-tildeH-gen", "E-h-gen",
                                "E-H-gen", "E-tildeT-gen", "E-T-gen",
                                "E-h2T2-D1", "E-h2T2-D1b"]
    assert va.TAN_FORMULAS == ["E-tildeh-gen2", "E-tildeH-gen2", "E-h-gen2",
                               "E-H-gen2", "E-tildeT-gen2", "E-T-gen2"]
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=4)
    with pytest.raises(SpecializationError, match="unknown variation formula"):
        va.verify_first_variation(s, v, (0.1, 0.1, 0.1), formulas="E-nope")
    with pytest.raises(SpecializationError, match="unknown variation formula"):
        geom = PointGeometry(s, (0.1, 0.1, 0.1))
        va._RHS(geom, v.B_at(geom.seeds)).rhs("E-nope")


def test_general_variation_splits_into_classes():
    # measured d/dt of each scalar = perp-formula(B-perp part) + tan-formula(B~);
    # T = T~ = 0 on the warped product, so the T pairs run where one is not
    warped = (struct("warped_product"), (0.1, -0.2, 0.2, 0.1))
    r3 = (struct("r3_contact"), (0.1, 0.1, 0.1))
    swapped = (load_structure(SWAPPED_R3), (0.1, 0.1, 0.1))
    for (s, pt), scalar, fperp, ftan in (
            (warped, "perp.norm_h", "E-tildeh-gen", "E-tildeh-gen2"),
            (warped, "tan.norm_h", "E-h-gen", "E-h-gen2"),
            (warped, "tan.gHH", "E-H-gen", "E-H-gen2"),
            (warped, "perp.gHH", "E-tildeH-gen", "E-tildeH-gen2"),
            (r3, "perp.norm_T", "E-tildeT-gen", "E-tildeT-gen2"),
            (swapped, "tan.norm_T", "E-T-gen", "E-T-gen2")):
        vg = va.random_variation(s, "general", seed=21)
        vp = va.MetricVariation(s, vg.raw, "perp")
        vt = va.MetricVariation(s, vg.raw, "tan")
        h = 2.5e-4
        read = attrgetter(scalar)
        fp = read(PointGeometry(s, pt, metric_fn=vg.metric_fn(h)))
        fm = read(PointGeometry(s, pt, metric_fn=vg.metric_fn(-h)))
        fd = (fp - fm) / (2 * h)
        geom = PointGeometry(s, pt)
        rp = va._RHS(geom, vp.B_at(geom.seeds)).rhs(fperp)
        rt = va._RHS(geom, vt.B_at(geom.seeds)).rhs(ftan)
        assert min(abs(rp), abs(rt)) > 1e-2, (scalar, rp, rt)   # both classes count
        assert fd == pytest.approx(rp + rt, abs=2e-6 * max(1, abs(fd)))


# ---------------------------------------------------------------------------
# projection lemma

def test_projection_lemma_static_and_moving():
    s = struct("r3_contact")
    pt = (0.2, -0.3, 0.1)
    v = va.random_variation(s, "perp", seed=11)
    res = verify_projection_lemma(s, v, pt, lambda t: [0.0, 1.0, 0.0])
    assert res["fd_vs_formula"] < 1e-6
    assert res["bsharp_top_identity"] < 1e-12
    res = verify_projection_lemma(
        s, v, pt, lambda t: [math.sin(t), 1.0 + 0.3 * t, 0.2 * t - 0.1])
    assert res["fd_vs_formula"] < 1e-6


def test_projection_lemma_tangent_field_correction_vanishes():
    s = struct("r3_contact")
    pt = (0.2, -0.3, 0.1)
    v = va.random_variation(s, "perp", seed=12)
    geom = PointGeometry(s, pt)
    X = geom.F[0]          # tangent to the distribution: X-perp = 0
    B0 = np.array([[value_of(x) for x in row] for row in v.B_at(list(pt))])
    corr = geom.ginv0 @ (B0 @ (X - X + X * 0.0))
    res = verify_projection_lemma(s, v, pt, lambda t: list(X))
    assert res["fd_vs_formula"] < 1e-6


# ---------------------------------------------------------------------------
# quadrature-level checks

def box3(r=0.6):
    return tuple((-r, r) for _ in range(3))


def test_action_derivative_zero_variation():
    s = struct("r3_contact")
    q = el.QuadratureSpec(box=box3(), grid=6)
    v = zero_variation(s)
    assert va.action_derivative(s, v, q, "J_mix",
                                enforce_support=False) == pytest.approx(0.0)


@pytest.mark.parametrize("action", ["J_T", "J_Ttilde", "J_nope"])
def test_unknown_action_rejected(action):
    s = struct("r3_contact")
    q = el.QuadratureSpec(box=box3(), grid=2)
    with pytest.raises(SpecializationError, match="unknown action"):
        va.action_value(s, q, action)
    with pytest.raises(SpecializationError, match="unknown action"):
        va.action_derivative(s, zero_variation(s), q, action,
                             enforce_support=False)


def test_action_derivative_matches_gradient_pairing():
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=7, box=box3())
    grad = jmix_gradient_pairing(s, v, el.QuadratureSpec(box=box3(), grid=8))
    vals = {}
    for grid in (8, 16):
        q = el.QuadratureSpec(box=box3(), grid=grid)
        vals[grid] = va.action_derivative(s, v, q, "J_mix", t_step=1e-3)
    # The refinement check compares the grid-8 pairing with FD at grids 8 and
    # 16.  It relies on the grid-8 FD quadrature error dominating the grid-8
    # pairing's own error (the divergence terms the pairing drops integrate to
    # zero only in the limit), which holds on this box.
    e8, e16 = abs(vals[8] - grad), abs(vals[16] - grad)
    assert e16 < e8 / 3.0                       # observed convergence
    assert e16 <= 3.0 * (abs(vals[16] - vals[8]) + 1e-8)


def test_div_H_plus_Ht_integral_constant_for_perp_variations():
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=13, box=box3(0.5))

    def intdiv(t, grid):
        fn = v.metric_fn(t)
        q = el.QuadratureSpec(box=box3(0.5), grid=grid)
        return el.integrate(s, lambda g: g.tan.div_H + g.perp.div_H, q, metric_fn=fn)

    h = 5e-3
    deriv = {g: (intdiv(h, g) - intdiv(-h, g)) / (2 * h) for g in (8, 16)}
    # zero up to quadrature error: refinement shrinks it and the finer value
    # sits inside three times the grid-to-grid error estimate
    assert abs(deriv[16]) < abs(deriv[8]) / 3.0
    assert abs(deriv[16]) <= 3.0 * abs(deriv[16] - deriv[8])


def test_bar_relation_volume_preserving_variation_trivial():
    # adjust the trace so the variation preserves the box volume: the
    # normalized and plain derivatives must then coincide
    s = struct("euclidean_product")
    q = el.QuadratureSpec(box=box3(0.8), grid=8)
    v0 = va.random_variation(s, "perp", seed=14, box=q.box)

    def trb(g):
        return np.trace(g.ginv0 @ values(v0.B_at(g.seeds, gmat=g.gJ)), axis1=-2, axis2=-1)

    mass = el.integrate(s, trb, q)
    # subtract c * bump * g-perp so the integrated trace vanishes
    bump_bits = []
    for mu, (lo, hi) in enumerate(q.box):
        mid, halfw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = exprlang.mul(exprlang.const(math.pi / (2 * halfw)),
                         exprlang.Binary("-", exprlang.Var(mu), exprlang.const(mid)))
        bump_bits.append(exprlang.powc(exprlang.Unary("cos", u), 4))
    bump = exprlang.mul(*bump_bits)
    qb = el.integrate(s, lambda g: 2.0 * values(exprlang.evaluate(bump, g.seeds, {})), q)
    c = mass / qb
    raw = [row[:] for row in v0.raw]
    for i in (1, 2):
        raw[i][i] = exprlang.Binary("-", raw[i][i], exprlang.mul(exprlang.const(c), bump))
    v = va.MetricVariation(s, raw, "perp", box=q.box)
    rep = va.verify_bar_relation(s, v, q, t_step=2e-3)
    assert abs(rep["int_trace_B"]) < 1e-10
    assert abs(rep["dJ_bar"] - rep["dJ"]) < 1e-7 * max(1.0, abs(rep["dJ"]))


def test_bar_relation_r3_contact():
    s = struct("r3_contact")
    q = el.QuadratureSpec(box=box3(0.5), grid=10)
    v = va.random_variation(s, "perp", seed=15, box=q.box)
    rep = va.verify_bar_relation(s, v, q, t_step=2e-3)
    assert rep["volume_drift"] < 1e-6
    # the phi-derivative check is limited by the O(t^2) differencing error
    fd_err = abs(rep["dphi_fd"] - rep["dphi_expected"])
    assert fd_err < 1e-5 * max(1.0, abs(rep["dphi_expected"]))
    scale = max(abs(rep["dJ"]), abs(rep["dJ_bar"]), 1.0)
    assert rep["relation_residual"] < 1e-5 * scale


@pytest.mark.parametrize("steps", [(1e-3,), (), (1e-3, -1e-3), (1e-3, 1e-3), (1e-3, 5e-4, 5e-4),
                                   (1e-3, 0.0), (1e-3, math.inf), (1e-3, math.nan)])
def test_fd_steps_must_be_distinct_positive_and_finite(steps):
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", 3)
    with pytest.raises(InvalidArgumentError, match="distinct positive finite FD steps"):
        va.verify_first_variation(s, v, (0.1, 0.2, 0.3), steps=steps)
    assert set(va.verify_first_variation(s, v, (0.1, 0.2, 0.3), steps=(1e-3, 5e-4)))


@pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan, None, (1e-3, 5e-4), ()])
def test_projection_lemma_step_must_be_positive_and_finite(step):
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=11)
    with pytest.raises(InvalidArgumentError, match="positive finite FD step"):
        verify_projection_lemma(s, v, (0.2, -0.3, 0.1), lambda t: [0.0, 1.0, 0.0], step=step)
    res = verify_projection_lemma(s, v, (0.2, -0.3, 0.1), lambda t: [0.0, 1.0, 0.0],
                                  step=5e-4)
    assert res["fd_vs_formula"] < 1e-6


@pytest.mark.parametrize("t_step", [0.0, -1e-3, math.inf, math.nan, None])
def test_action_derivative_step_must_be_positive_and_finite(t_step):
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=11, box=((-0.5, 0.5),) * 3)
    q = el.QuadratureSpec(box=((-0.6, 0.6),) * 3, grid=4)
    with pytest.raises(InvalidArgumentError, match="positive finite FD step"):
        va.action_derivative(s, v, q, "J_mix", t_step=t_step)


@pytest.mark.parametrize("t_step", [0.0, -1e-3, math.inf, math.nan, None])
def test_bar_relation_step_must_be_positive_and_finite(t_step):
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=11, box=((-0.5, 0.5),) * 3)
    q = el.QuadratureSpec(box=((-0.6, 0.6),) * 3, grid=4)
    with pytest.raises(InvalidArgumentError, match="positive finite FD step"):
        va.verify_bar_relation(s, v, q, t_step=t_step)


def test_projection_lemma_reports_a_non_finite_difference():
    s = struct("r3_contact")
    v = va.random_variation(s, "perp", seed=11)
    res = verify_projection_lemma(s, v, (0.2, -0.3, 0.1),
                                  lambda t: [0.0, 1.0, math.nan if t else 0.0])
    assert math.isnan(res["fd_vs_formula"])


@pytest.mark.parametrize("steps", [0, -1, 2.5, None])
def test_rk4_steps_must_be_a_positive_integer(steps):
    s = struct("r3_contact")
    with pytest.raises(InvalidArgumentError, match="positive integer number of RK4 steps"):
        va.evolve_frame(s, zero_variation(s), (0.1, 0.2, 0.3), steps=steps)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, "0.1", None, 1j])
def test_rk4_end_time_must_be_finite_and_real(t_end):
    s = struct("r3_contact")
    with pytest.raises(InvalidArgumentError, match="finite real end time"):
        va.evolve_frame(s, zero_variation(s), (0.1, 0.2, 0.3), t_end=t_end)


@pytest.mark.parametrize("t_end", [0, 0.0, -0.1, np.float64(0.05)])
def test_rk4_end_time_may_be_zero_or_negative(t_end):
    s = struct("r3_contact")
    v = va.random_variation(s, "general", seed=5)
    path, drift = va.evolve_frame(s, v, (0.1, 0.2, 0.3), t_end=t_end, steps=8)
    assert len(path) == 9 and drift < 1e-8
    assert (np.max(np.abs(path[-1] - path[0])) == 0.0) == (t_end == 0)
