"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, not configured elsewhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from mixedcurv import exprlang, gallery
from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.geometry import PointGeometry, identity_suite, node_chunks
from mixedcurv.jets import value_of


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def struct(name):
    return gallery.load_entry(name).structure


# ---------------------------------------------------------------------------

def test_criterion_1_identity_suite():
    entries = ["euclidean_product", "r3_contact", "s3_hopf",
               "s7_three_sasakian", "codim1_coth_tanh"]
    t0 = time.time()
    worst = 0.0
    for name in entries:
        s = struct(name)
        for pt in s.interior_points(10, 101):
            worst = max(worst, identity_suite(s, pt)["max"])
    elapsed = time.time() - t0
    _verdict(1, worst <= 1e-6 and elapsed < 30.0,
             f"identity residuals max {worst:.2e} (tol 1e-6) over 5 entries x "
             f"10 points in {elapsed:.1f}s (< 30s)")


def test_criterion_2_r3_contact_reproduction():
    e = gallery.load_entry("r3_contact")
    s = e.structure
    worst_mat = worst_ric = worst_H = worst_crit = 0.0
    min_noncrit = math.inf
    for pt in s.interior_points(10, 102):
        g = PointGeometry(s, pt)
        At = gallery.evaluate_quantity(e, g, "At_reference")
        Tt = gallery.evaluate_quantity(e, g, "Ttsharp_reference")
        worst_mat = max(worst_mat,
                        float(np.max(np.abs(At - np.array([[0, -1], [-1, 0]])))),
                        float(np.max(np.abs(Tt - np.array([[0, 1], [-1, 0]])))))
        worst_ric = max(worst_ric, abs(g.ric_N))
        worst_H = max(worst_H, float(np.max(np.abs(g.tan.H0))))
        worst_crit = max(worst_crit,
                         el.el_flow(PointGeometry(s, pt), "E-main-3i").norm,
                         el.el_flow(PointGeometry(s, pt), "E-main-2i").norm)
        min_noncrit = min(min_noncrit,
                          el.el_flow(PointGeometry(s, pt), "E-main-1i").norm)
    ok = (worst_mat <= 1e-9 and worst_ric <= 1e-8 and worst_H <= 1e-9
          and worst_crit <= 1e-6 and min_noncrit >= 1e-5)
    _verdict(2, ok,
             f"contact tables: matrices {worst_mat:.1e} (1e-9), Ric_N "
             f"{worst_ric:.1e} (1e-8), H {worst_H:.1e} (1e-9), critical eqs "
             f"{worst_crit:.1e} (1e-6), non-critical eq {min_noncrit:.2f} (>=1e-5)")


def test_criterion_3_k_contact_criticality():
    s = struct("s3_hopf")
    worst = 0.0
    rics, stars_p, stars_t = [], [], []
    for pt in s.interior_points(50, 103):
        g = PointGeometry(s, pt)
        stars_p.append(el.s_star(g, "perp"))
        stars_t.append(el.s_star(g, "tan"))
        rics.append(g.ric_N)
    for pt in s.interior_points(10, 104):
        for eq in ("E-main-1i", "E-main-3i", "E-main-2i"):
            worst = max(worst, el.el_flow(PointGeometry(s, pt), eq).norm)
        rep = el.el_geodesic_riemannian_flow(PointGeometry(s, pt))
        worst = max(worst, rep["E-1geod-Riem"].norm, rep["geodriemflowiii"].norm)
    ric_dev = max(abs(r - 2.0) for r in rics)
    ok = (worst <= 1e-6 and ric_dev <= 1e-7
          and np.std(stars_p) <= 1e-7 and np.std(stars_t) <= 1e-7)
    _verdict(3, ok,
             f"hopf flow: eq residuals {worst:.1e} (1e-6), Ric_N-2 "
             f"{ric_dev:.1e} (1e-7), starred-scalar stds "
             f"{np.std(stars_p):.1e}/{np.std(stars_t):.1e} (1e-7)")


def test_criterion_4_three_sasakian():
    s = struct("s7_three_sasakian")
    worst_prop = worst_norm = worst_eq = 0.0
    for pt in s.interior_points(3, 105):
        g = PointGeometry(s, pt)
        worst_prop = max(
            worst_prop,
            float(np.max(np.abs(g.perp.r - 3.0 * np.diag(g.perp.eps)))),
            float(np.max(np.abs(g.tan.r - 4.0 * np.diag(g.tan.eps)))))
        worst_norm = max(worst_norm, abs(g.perp.norm_T - 12.0))
        for eq in ("E-main-0i", "E-main-0ii", "E-main-0iii"):
            worst_eq = max(worst_eq, el.el_general(s, pt, eq).norm)
    ok = worst_prop <= 1e-7 and worst_norm <= 1e-6 and worst_eq <= 1e-6
    _verdict(4, ok,
             f"three-Sasakian: partial-Ricci proportionality {worst_prop:.1e} "
             f"(1e-7), |T~|^2-12 {worst_norm:.1e} (1e-6), EL residuals "
             f"{worst_eq:.1e} (1e-6)")


def test_criterion_5_first_variation_formulas():
    t0 = time.time()
    bad = []
    count = 0
    for name in ("r3_contact", "s3_hopf"):
        s = struct(name)
        pts = s.interior_points(10, 106)
        for klass, formulas in (("perp", va.PERP_FORMULAS),
                                ("tan", va.TAN_FORMULAS)):
            for seedk in range(5):
                v = va.random_variation(s, klass, seed=500 + seedk)
                for pt in pts:
                    reps = va.verify_first_variation(s, v, pt,
                                                     formulas=formulas, tol=1e-5)
                    for f, r in reps.items():
                        count += 1
                        if not r.verdict or (r.order is not None and r.order < 1.8):
                            bad.append((name, klass, seedk, f, r.order,
                                        min(r.discrepancies)))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300.0
    _verdict(5, ok,
             f"first variations: {count} formula checks (14 formulas, 5 seeds "
             f"per class, 2 entries), failures {len(bad)}, {elapsed:.0f}s "
             f"(< 300s){'; ' + str(bad[:3]) if bad else ''}")


def test_criterion_6_frame_evolution_drift():
    worst = 0.0
    for name in ("r3_contact", "s3_hopf", "lorentz_product"):
        s = struct(name)
        pt = s.interior_points(1, 107)[0]
        for klass in ("perp", "tan", "general"):
            v = va.random_variation(s, klass, seed=61)
            _, drift = va.evolve_frame(s, v, pt, t_end=0.1, steps=64)
            worst = max(worst, drift)
    _verdict(6, worst <= 1e-8,
             f"frame evolution drift {worst:.2e} over t in [0, 0.1], 64 steps "
             f"(tol 1e-8)")


def test_criterion_7_integral_relations():
    s = struct("r3_contact")
    omega = tuple((-0.65, 0.65) for _ in range(3))
    bump = tuple((-0.35, 0.35) for _ in range(3))
    v = va.random_variation(s, "perp", seed=71, box=bump)

    # --- mean-curvature divergence lemma: d/dt of the integral vanishes.
    # Outside the support box the metric family is pointwise constant, so
    # those quadrature nodes cancel exactly in the +t/-t difference and only
    # supported nodes are evaluated (bit-exact restriction, not a cutoff).
    # The supported nodes are evaluated in chunks, with one bundle over a
    # chunk's nodes at each of g + hB and g - hB.
    def ddt_divsum(grid, h):
        q = el.QuadratureSpec(box=omega, grid=grid)
        pts, wts = el.grid_points(q)
        keep = [va._inside(pt, bump) for pt in pts]
        fp, fm = v.metric_fn(h), v.metric_fn(-h)

        def chunk(c):
            a = PointGeometry(s, c, metric_fn=fp)
            b = PointGeometry(s, c, metric_fn=fm)
            return ((a.tan.div_H + a.perp.div_H) * a.volume_density
                    - (b.tan.div_H + b.perp.div_H) * b.volume_density)

        diffs = iter(node_chunks([pt for pt, k in zip(pts, keep) if k], s.dim, chunk))
        return el.pairwise_sum(w * next(diffs) if k else 0.0
                               for k, w in zip(keep, wts)) / (2.0 * h)

    d32 = ddt_divsum(32, 5e-3)
    d16 = ddt_divsum(16, 5e-3)
    d32h = ddt_divsum(32, 2.5e-3)
    err_est = abs(d32 - d16) + abs(d32 - d32h)
    ok_lemma = abs(d32) <= 3.0 * err_est + 1e-9

    # --- volume-normalized action relation at grid 32
    q32 = el.QuadratureSpec(box=omega, grid=32)
    rep32 = va.verify_bar_relation(s, v, q32, t_step=2e-3, sstar_grid=8)
    q16 = el.QuadratureSpec(box=omega, grid=16)
    rep16 = va.verify_bar_relation(s, v, q16, t_step=4e-3, sstar_grid=8)
    rel_err_est = (abs(rep32["dJ_bar"] - rep16["dJ_bar"])
                   + abs(rep32["dJ"] - rep16["dJ"]))
    ok_bar = rep32["relation_residual"] <= 3.0 * rel_err_est + 1e-9
    ok_vol = rep32["volume_drift"] <= 1e-6

    _verdict(7, ok_lemma and ok_bar and ok_vol,
             f"integral relations: divergence-lemma derivative {d32:.2e} "
             f"(<= 3x est {3 * err_est:.2e}), action relation residual "
             f"{rep32['relation_residual']:.2e} (<= 3x est {3 * rel_err_est:.2e}), "
             f"volume drift {rep32['volume_drift']:.2e} (1e-6)")


def test_criterion_8_foliation_solutions():
    s = struct("codim1_coth_tanh")
    worst_gv = 0.0
    for k in range(50):
        t = 0.55 + 0.9 * k / 49.0
        worst_gv = max(worst_gv,
                       el.codim1_genvar_coordinate_residual(
                           PointGeometry(s, (t, 0.3, -0.2))))
    sr = struct("codim1_tau_riccati")
    chat, tau0 = sr.params["chat"], sr.params["tau0"]
    worst_ric = worst_tau = 0.0
    h = 1e-5
    for k in range(50):
        t = -0.9 + 1.8 * k / 49.0
        tau = el.tau1_formula(chat, tau0, t)
        dtau = (el.tau1_formula(chat, tau0, t + h)
                - el.tau1_formula(chat, tau0, t - h)) / (2 * h)
        worst_ric = max(worst_ric, abs(dtau - (tau * tau - chat)))
        g = PointGeometry(sr, (t, 0.2, -0.1))
        worst_tau = max(worst_tau, abs(value_of(g.tan.tau1_J) - tau))
    worst_bif = 0.0
    for name in ("codim1_coth_tanh", "codim1_tau_riccati"):
        sb = struct(name)
        for pt in sb.interior_points(5, 108):
            worst_bif = max(worst_bif, el.bifoliated_iii_residual(PointGeometry(sb, pt)))
    ok = worst_gv <= 1e-8 and worst_ric <= 1e-7 and worst_bif <= 1e-7
    _verdict(8, ok,
             f"foliations: coordinate system residual {worst_gv:.1e} (1e-8) on "
             f"a 50-point grid, Riccati residual {worst_ric:.1e} (1e-7, engine "
             f"tau agrees to {worst_tau:.1e}), leafwise equation {worst_bif:.1e} "
             f"(1e-7)")


def test_criterion_9_conformal_change():
    s = struct("r3_contact")
    psi = exprlang.parse("x1", 3)
    worst_agree = 0.0
    biggest = 0.0
    for pt in s.interior_points(5, 109):
        for y in (0, 1):
            direct, closed = el.conformal_check(s, psi, pt, y_index=y)
            worst_agree = max(worst_agree, abs(direct - closed))
            biggest = max(biggest, abs(direct))
    ok = worst_agree <= 1e-6 and biggest >= 1e-4
    _verdict(9, ok,
             f"conformal change: direct-vs-closed {worst_agree:.1e} (1e-6), "
             f"largest residual magnitude {biggest:.2e} (>= 1e-4)")


def test_criterion_10_volume_preserving_multipliers():
    s3 = struct("s3_hopf")
    rep = el.el_volume_preserving(s3, s3.interior_points(5, 110), "flow")
    gap_dev = max(abs(r["lambda_gap"] - 8.0) for r in rep["rows"])
    tt_dev = max(abs(r["norm_Tt"] - 2.0) for r in rep["rows"])

    r3 = struct("r3_contact")
    repc = el.el_volume_preserving(r3, r3.interior_points(5, 111), "contact-T")
    lam_ok = all(abs(r["lambda_perp_paper"] - 3.0) < 1e-12
                 and abs(r["lambda_top_paper"] - 3.0) < 1e-12
                 and abs(r["lambda_top_trace"] - 3.0) <= 1e-6
                 for r in repc["rows"])
    ok = gap_dev <= 1e-6 and tt_dev <= 1e-6 and repc["consistent"] and lam_ok
    _verdict(10, ok,
             f"multiplier recoveries: hopf-flow gap 8 to {gap_dev:.1e} (1e-6, "
             f"|T~|^2 = 2 to {tt_dev:.1e}), contact p=2 system consistent at "
             f"lambda 3 (printed-system gap {repc['max_gap']:.1e})")
