import math

import numpy as np
import pytest

from mixedcurv import exprlang, gallery
from mixedcurv import euler_lagrange as el
from mixedcurv.errors import SpecializationError
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import jexp

from test_variation_family import metric_rows


def struct(name):
    return gallery.load_entry(name).structure


# ---------------------------------------------------------------------------
# quadrature

def test_domain_mean_constant():
    s = struct("euclidean_product")
    q = el.QuadratureSpec(box=((-1, 1), (-1, 1), (-1, 1)), grid=4)
    assert el.domain_mean(s, lambda *a: 1.0, q) == pytest.approx(1.0, abs=1e-13)


def test_domain_mean_linear_midpoint():
    s = struct("euclidean_product")
    q = el.QuadratureSpec(box=((0, 1), (-1, 1), (-1, 1)), grid=8)
    mean = el.domain_mean(s, lambda st, pt, m: pt[0], q)
    assert mean == pytest.approx(0.5, abs=1e-12)     # midpoint is exact on linears


def test_volume_grid_refinement_second_order():
    s = struct("r3_contact")
    q32 = el.QuadratureSpec(box=((0, 1), (0, 1), (0, 1)), grid=32)

    def vol(grid):
        return el.volume(s, el.QuadratureSpec(box=q32.box, grid=grid))

    v8, v16, v32 = vol(8), vol(16), vol(32)
    # Richardson limit from the two finest grids (2nd-order midpoint rule)
    limit = v32 + (v32 - v16) / 3.0
    assert abs(v32 - limit) / abs(limit) < 1e-3
    e8, e16 = abs(v8 - limit), abs(v16 - limit)
    assert e8 / max(e16, 1e-18) > 3.0                # error drops ~4x per halving


def test_trapezoid_rule_converges():
    s = struct("euclidean_product")

    def f(st, pt, m):
        return math.sin(pt[0]) * math.cos(pt[1])

    exact = (1 - math.cos(1.0)) * math.sin(1.0) * 2.0
    vals = {}
    for grid in (9, 17):
        q = el.QuadratureSpec(box=((0, 1), (0, 1), (-1, 1)), grid=grid,
                              rule="trapezoid")
        vals[grid] = el.integrate(s, lambda st, pt, m: f(st, pt, m)
                                  * el._density(st, pt, m), q)
    assert abs(vals[17] - exact) < abs(vals[9] - exact) / 3.0


def test_pairwise_sum_deterministic():
    xs = [math.sin(k) * 10 ** ((k % 7) - 3) for k in range(101)]
    assert el.pairwise_sum(xs) == el.pairwise_sum(list(xs))


# ---------------------------------------------------------------------------
# starred scalars

def test_s_star_flat_zero():
    g = PointGeometry(struct("euclidean_product"), (0.1, 0.2, 0.3))
    assert el.s_star(g, "perp") == 0.0
    assert el.s_star(g, "tan") == 0.0


def test_s_star_constant_over_hopf_sphere():
    s = struct("s3_hopf")
    perp, tan = [], []
    for pt in s.interior_points(50, 31):
        g = PointGeometry(s, pt)
        perp.append(el.s_star(g, "perp"))
        tan.append(el.s_star(g, "tan"))
    assert np.std(perp) < 1e-7 and np.mean(perp) == pytest.approx(-2.0, abs=1e-7)
    assert np.std(tan) < 1e-7 and np.mean(tan) == pytest.approx(6.0, abs=1e-7)


def test_s_star_two_assemblies_agree_on_flows():
    for name in ("s3_hopf", "r3_contact", "nil4_flow"):
        s = struct(name)
        for pt in s.interior_points(4, 32):
            g = PointGeometry(s, pt)
            fp, ft = el.s_star_flow(g)
            assert el.s_star(g, "perp") == pytest.approx(fp, abs=1e-9)
            assert el.s_star(g, "tan") == pytest.approx(ft, abs=1e-9)


# ---------------------------------------------------------------------------
# the general system

def test_flat_product_all_equations_zero():
    s = struct("euclidean_product")
    pt = (0.2, -0.1, 0.4)
    consts = {"s_star_perp": 0.0, "s_star_tan": 0.0}
    for eq in ("E-main-0i", "E-main-0ii", "E-main-0iii"):
        assert el.el_general(s, pt, eq, constants=consts).norm == 0.0


def test_hopf_passes_all_three():
    s = struct("s3_hopf")
    for pt in s.interior_points(5, 33):
        for eq in ("E-main-0i", "E-main-0ii", "E-main-0iii"):
            assert el.el_general(s, pt, eq).norm < 1e-6, eq


def test_contact_fails_0i_passes_0ii_0iii():
    s = struct("r3_contact")
    for pt in s.interior_points(5, 34):
        assert el.el_general(s, pt, "E-main-0i").norm > 0.1
        assert el.el_general(s, pt, "E-main-0ii").norm < 1e-6
        assert el.el_general(s, pt, "E-main-0iii").norm < 1e-6


def test_s7_passes_all_three():
    s = struct("s7_three_sasakian")
    for pt in s.interior_points(2, 35):
        for eq in ("E-main-0i", "E-main-0ii", "E-main-0iii"):
            assert el.el_general(s, pt, eq).norm < 1e-6, eq


def test_constants_source_recorded():
    s = struct("s3_hopf")
    rep = el.el_general(s, (0.1, 0.1, 0.1), "E-main-0i",
                        constants={"s_star_perp": -2.0})
    assert rep.constants["s_star_perp_source"] == "user"
    rep = el.el_general(s, (0.1, 0.1, 0.1), "E-main-0i")
    assert rep.constants["s_star_perp_source"] == "pointwise"


# ---------------------------------------------------------------------------
# flows

def test_flow_guard():
    with pytest.raises(SpecializationError):
        el.el_flow(struct("warped_product"), (0.1, 0.1, 0.1, 0.1), "E-main-1i")


def test_hopf_flow_equations():
    s = struct("s3_hopf")
    for pt in s.interior_points(5, 36):
        for eq in ("E-main-1i", "E-main-3i", "E-main-2i"):
            assert el.el_flow(s, pt, eq).norm < 1e-6, eq


def test_contact_flow_equations():
    s = struct("r3_contact")
    for pt in s.interior_points(5, 37):
        assert el.el_flow(s, pt, "E-main-3i").norm < 1e-6
        assert el.el_flow(s, pt, "E-main-2i").norm < 1e-6
        assert el.el_flow(s, pt, "E-main-1i").norm > 1e-5


def test_geodesic_riemannian_flow_hopf():
    s = struct("s3_hopf")
    rics = []
    for pt in s.interior_points(10, 38):
        rep = el.el_geodesic_riemannian_flow(s, pt)
        assert rep["E-1geod-Riem"].norm < 1e-7
        assert rep["geodriemflowiii"].norm < 1e-7
        rics.append(rep["ric_N"])
    assert np.std(rics) < 1e-9
    assert rics[0] == pytest.approx(2.0, abs=1e-7)


def test_geodesic_riemannian_flow_flat():
    rep = el.el_geodesic_riemannian_flow(struct("euclidean_product"),
                                         (0.1, -0.2, 0.3))
    assert rep["E-1geod-Riem"].norm == 0.0
    assert rep["ric_N"] == 0.0


def test_geodesic_riemannian_flow_anisotropic_entry_fails():
    s = struct("nil4_flow")
    rep = el.el_geodesic_riemannian_flow(s, (0.3, 0.1, -0.2, 0.4))
    assert rep["E-1geod-Riem"].norm == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert rep["geodriemflowiii"].norm < 1e-9
    assert rep["ric_N"] == pytest.approx(0.5, abs=1e-9)


def test_geodesic_riemannian_guard_rejects_curved_leaves():
    # the contact entry has h~ != 0, so the Riemannian-flow guard rejects it
    with pytest.raises(SpecializationError):
        el.el_geodesic_riemannian_flow(struct("r3_contact"), (0.1, 0.1, 0.1))
    # the flat Lorentz product is a legitimate geodesic Riemannian flow
    rep = el.el_geodesic_riemannian_flow(struct("lorentz_product"), (0, 0, 0, 0))
    assert rep["E-1geod-Riem"].norm == 0.0


# ---------------------------------------------------------------------------
# volume-preserving regimes

def test_volume_preserving_flat_consistent():
    rep = el.el_volume_preserving(struct("euclidean_product"),
                                  [(0.1, 0.2, 0.3)], "flow")
    assert rep["consistent"]
    assert rep["rows"][0]["lambda_from_E-main-1K"] == pytest.approx(0.0)


def test_volume_preserving_hopf_inconsistent_by_eight():
    s = struct("s3_hopf")
    rep = el.el_volume_preserving(s, s.interior_points(5, 39), "flow")
    assert not rep["consistent"]
    for row in rep["rows"]:
        # |3 - (p-4)/p| <T~,T~> with p = 2 and <T~,T~> = 2
        assert row["lambda_gap"] == pytest.approx(8.0, abs=1e-6)
        assert row["lambda_from_E-main-1K"] == pytest.approx(row["closed_form_1K"],
                                                             abs=1e-8)
        assert row["lambda_from_E-main-2K"] == pytest.approx(row["closed_form_2K"],
                                                             abs=1e-8)


def test_volume_preserving_contact_paper_system():
    s = struct("r3_contact")
    rep = el.el_volume_preserving(s, s.interior_points(3, 40), "contact-T")
    assert rep["consistent"]                     # printed system: p = 2 closes
    row = rep["rows"][0]
    assert row["lambda_perp_paper"] == pytest.approx(3.0)
    assert row["lambda_top_paper"] == pytest.approx(3.0)
    assert row["lambda_top_trace"] == pytest.approx(3.0, abs=1e-8)
    # the honest trace recovery of the first equation sits at 2 - p/2 = 1,
    # two below the printed multiplier; see the README hall of discrepancies
    assert row["lambda_perp_trace"] == pytest.approx(1.0, abs=1e-8)


def test_volume_preserving_codim1():
    s = struct("codim1_coth_tanh")
    rep = el.el_volume_preserving(s, s.interior_points(4, 41), "codim1")
    assert rep["consistent"]
    assert rep["max_gap"] < 1e-9


# ---------------------------------------------------------------------------
# the non-integrability action

def test_tildeT_action_integrable_complement_trivial():
    s = struct("warped_product")
    reps = el.el_tildeT_action(s, (0.1, 0.2, -0.1, 0.3))
    for eq in ("ELtildeT1", "ELtildeT2", "ELtildeT3"):
        assert reps[eq].norm < 1e-12


def test_tildeT_action_contact_critical():
    for name in ("r3_contact", "s3_hopf"):
        s = struct(name)
        for pt in s.interior_points(4, 42):
            reps = el.el_tildeT_action(s, pt)
            for eq in ("ELtildeT1", "ELtildeT2", "ELtildeT3"):
                assert reps[eq].norm < 1e-6, (name, eq)


def test_tildeT_action_three_sasakian():
    s = struct("s7_three_sasakian")
    norms = []
    for pt in s.interior_points(2, 43):
        g = PointGeometry(s, pt)
        norms.append(g.perp.norm_T)
        reps = el.el_tildeT_action(s, pt)
        for eq in ("ELtildeT1", "ELtildeT2", "ELtildeT3"):
            assert reps[eq].norm < 1e-6, eq
    assert np.std(norms) < 1e-9
    assert norms[0] == pytest.approx(12.0, abs=1e-6)


# ---------------------------------------------------------------------------
# conformal change

def test_conformal_check_constant_psi_zero():
    s = struct("r3_contact")
    psi = exprlang.parse("0.7", 3)
    direct, closed = el.conformal_check(s, psi, (0.2, 0.1, -0.3), y_index=1)
    assert abs(direct) < 1e-9 and abs(closed) < 1e-12


def test_conformal_check_directions_agree_and_nonzero():
    s = struct("r3_contact")
    psi = exprlang.parse("x1", 3)
    seen_nonzero = False
    for pt in s.interior_points(5, 44):
        for y in (0, 1):
            direct, closed = el.conformal_check(s, psi, pt, y_index=y)
            assert direct == pytest.approx(closed, abs=1e-6)
            seen_nonzero |= abs(direct) > 1e-4
    assert seen_nonzero


def test_conformal_check_tangent_gradient_gives_zero_closed_form():
    # psi depending only on the flow coordinate: its perp-gradient vanishes
    s = struct("r3_contact")
    psi = exprlang.parse("x0*0 + 1.0", 3)
    _, closed = el.conformal_check(s, psi, (0.3, -0.2, 0.1), y_index=0)
    assert closed == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# codimension one

def test_codim1_guard():
    with pytest.raises(SpecializationError):
        el.el_codim1(struct("s3_hopf"), (0.1, 0.1, 0.1), "codimoneEL1")


def test_coth_tanh_volume_preserving_system():
    s = struct("codim1_coth_tanh")
    for pt in s.interior_points(6, 45):
        assert el.el_codim1(s, pt, "codim1folgenvar").norm < 1e-8
        assert el.el_codim1(s, pt, "codimoneEL2").norm < 1e-10
        assert el.codim1_genvar_coordinate_residual(s, pt) < 1e-8
        assert el.bifoliated_iii_residual(s, pt) < 1e-9


def test_coth_tanh_along_t_grid():
    s = struct("codim1_coth_tanh")
    for k in range(50):
        t = 0.55 + 0.9 * k / 49.0
        assert el.codim1_genvar_coordinate_residual(s, (t, 0.2, -0.4)) < 1e-8


def test_biregular_closed_forms_match_engine():
    s = struct("codim1_coth_tanh")
    for pt in s.interior_points(4, 46):
        cf = el.biregular_closed_forms(s, pt)
        geom = PointGeometry(s, pt)
        eN, AN, tau1, tau2, _ = el._codim1_data(geom)
        assert tau1 == pytest.approx(cf["tau1"], abs=1e-10)
        assert tau2 == pytest.approx(cf["tau2"], abs=1e-10)
        assert sorted(np.linalg.eigvals(AN).real) == pytest.approx(
            sorted(cf["A_diag"]), abs=1e-10)
        # coordinate components of nabla_N h_sc against the closed form
        nab_fr = geom.tan.nabla_N_hsc
        gv = [el.value_of(x) for x in (geom.gJ[1][1], geom.gJ[2][2])]
        # engine frame components scale by 1/g_ii on the diagonal
        diag_coord = sorted([nab_fr[0, 0] * gv[0], nab_fr[1, 1] * gv[1]])
        assert diag_coord == pytest.approx(sorted(cf["nabla_N_hsc_diag"]),
                                           abs=1e-9)
        SJ = geom.tan.A_field
        form = geom.div_11(SJ, mode="tan")
        for i, want in enumerate(cf["div_tan_AN"]):
            assert form[1 + i] == pytest.approx(want, abs=1e-9)


def test_tau1_formula_riccati_and_engine_match():
    s = struct("codim1_tau_riccati")
    chat, tau0 = s.params["chat"], s.params["tau0"]
    from mixedcurv.jets import value_of
    h = 1e-5
    for k in range(50):
        t = -0.9 + 1.8 * k / 49.0
        tau = el.tau1_formula(chat, tau0, t)
        dtau = (el.tau1_formula(chat, tau0, t + h)
                - el.tau1_formula(chat, tau0, t - h)) / (2 * h)
        assert abs(dtau - (tau * tau - chat)) < 1e-7       # re-derived Riccati
        geom = PointGeometry(s, (t, 0.1, -0.2))
        assert value_of(geom.tan.tau1_J) == pytest.approx(tau, abs=1e-9)


def test_codim1_el3_pointwise_on_coth_tanh():
    # the tangent-side equation holds with the pointwise starred scalar
    s = struct("codim1_coth_tanh")
    for pt in s.interior_points(4, 47):
        assert el.el_codim1(s, pt, "codimoneEL3").norm < 1e-9


# ---------------------------------------------------------------------------
# cross-assembly invariants

def test_0iii_matches_flow_contraction():
    # the tangent-block general equation contracts to half the flow scalar
    for name, pt in (("nil4_flow", (0.3, 0.1, -0.2, 0.4)),
                     ("s3_hopf", (0.2, -0.1, 0.3)),
                     ("r3_contact", (0.1, 0.4, -0.2))):
        s = struct(name)
        for star in (0.0, 1.7):
            consts = {"s_star_tan": star}
            a = el.el_general(s, pt, "E-main-0iii", constants=consts)
            b = el.el_flow(s, pt, "E-main-2i", constants=consts)
            eN = PointGeometry(s, pt).tan.eps[0]
            assert np.asarray(a.residual).flat[0] == pytest.approx(
                0.5 * eN * b.residual[0], abs=1e-8)


def test_0ii_matches_3i_through_flow_reduction():
    s = struct("r3_contact")
    psi = exprlang.parse("x1", 3)

    def hat(xs):
        # nested lists of scalar jets, straight from the spec's expressions
        rows = metric_rows(s, xs)
        c = jexp(-2.0 * exprlang.evaluate(psi, list(xs), s.params))
        return [[c * rows[i][j] for j in range(3)] for i in range(3)]

    for pt in s.interior_points(4, 48):
        a = el.el_general(s, pt, "E-main-0ii", metric_fn=hat)
        b = el.el_flow(s, pt, "E-main-3i", metric_fn=hat)
        assert np.max(np.abs(np.asarray(a.residual)[0]
                             + 0.5 * np.asarray(b.residual))) < 1e-8


def test_report_serialization():
    rep = el.el_general(struct("s3_hopf"), (0.1, 0.1, 0.1), "E-main-0i")
    d = rep.to_dict()
    assert d["verdict"] is True
    assert "s_star_perp" in d["constants"]


def test_domain_mean_error_quarters_when_grid_doubles():
    s = struct("r3_contact")

    def f(st, pt, m):
        return math.sin(1.3 * pt[0]) * math.exp(0.4 * pt[1])

    box = ((-0.8, 0.7), (-0.6, 0.8), (-0.5, 0.5))
    means = {g: el.domain_mean(s, f, el.QuadratureSpec(box=box, grid=g))
             for g in (8, 16, 32)}
    limit = means[32] + (means[32] - means[16]) / 3.0
    e8, e16 = abs(means[8] - limit), abs(means[16] - limit)
    assert 3.0 < e8 / e16 < 5.0          # second-order rule: error ~ h^2


DE_SITTER_SLICING = """
name = lorentz_codim1
dim = 3
dtilde_dim = 2
metric 0 0 = -1
metric 1 1 = exp(2*x0)
metric 2 2 = exp(2*x0)
dtilde 0 = 0, 1, 0
dtilde 1 = 0, 0, 1
domain = [-0.8, 0.8] x [-1, 1] x [-1, 1]
"""


def test_codim1_with_timelike_normal():
    # exercises the eps_N bookkeeping of the codimension-one system on a
    # Lorentzian slicing (flat leaves, timelike unit normal)
    from mixedcurv.structure import load_structure
    from mixedcurv.geometry import identity_suite
    s = load_structure(DE_SITTER_SLICING)
    for pt in s.interior_points(4, 50):
        g = PointGeometry(s, pt)
        assert g.perp.eps == [-1.0]
        assert identity_suite(s, pt)["max"] < 1e-9
        eN, AN, tau1, tau2, _ = el._codim1_data(g)
        assert eN == -1.0
        # umbilical slicing with constant principal curvatures
        assert abs(abs(tau1) - 2.0) < 1e-10 and abs(tau2 - 2.0) < 1e-10
        assert el.el_codim1(s, pt, "codimoneEL2").norm < 1e-10
        assert el.el_codim1(s, pt, "codim1folgenvar").norm < 1e-9
