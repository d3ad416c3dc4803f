import gc
import math
import weakref
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import euler_lagrange as el
from mixedcurv import gallery
from mixedcurv.errors import SingularEvaluationError, SpecializationError
from mixedcurv.geometry import (PointGeometry, identity_suite,
                                jet_matrix_inverse, mixed_scalar,
                                partial_ricci, smix_density_fast)
from mixedcurv.jets import ArrayJet, dense, gradients, seed, values
from mixedcurv.structure import load_structure
from scalar_inverse import assert_close_to_loop, scalar_matrix_inverse

S2_CHART = """
dim = 2
dtilde_dim = 1
metric 0 0 = 1
metric 1 1 = sin(x0)^2
dtilde 0 = 1, 0
domain = [0.3, 2.8] x [-3, 3]
"""

HYPERBOLIC = """
dim = 2
dtilde_dim = 1
metric 0 0 = 1/x1^2
metric 1 1 = 1/x1^2
dtilde 0 = 1, 0
domain = [-1, 1] x [0.5, 3]
"""


def entry(name):
    return gallery.load_entry(name)


def bundle(name, pt):
    return PointGeometry(entry(name).structure, pt)


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature conventions

def test_flat_christoffels_vanish():
    g = bundle("euclidean_product", (0.1, -0.2, 0.3))
    assert np.max(np.abs(g.Gamma0)) == 0.0
    assert g.smix == 0.0


def test_sphere_christoffel_closed_form():
    s = load_structure(S2_CHART)
    g = PointGeometry(s, (1.0, 0.5))
    assert g.Gamma0[0, 1, 1] == pytest.approx(-math.sin(1) * math.cos(1), abs=1e-10)
    assert g.Gamma0[1, 0, 1] == pytest.approx(math.cos(1) / math.sin(1), abs=1e-10)


def test_contact_christoffels_match_finite_differences():
    s = entry("r3_contact").structure
    pt = (0.0, 0.0, 0.0)
    g = PointGeometry(s, pt)
    h = 1e-4
    ginv = g.ginv0

    def gm(p):
        return np.array(s.metric_at(list(p)))

    dg = np.zeros((3, 3, 3))
    for m in range(3):
        pp, pm = list(pt), list(pt)
        pp[m] += h
        pm[m] -= h
        dg[m] = (gm(pp) - gm(pm)) / (2 * h)
    Gamma_fd = 0.5 * np.einsum(
        "st,mtn->smn",
        ginv, dg + np.einsum("nmt->mtn", dg) - np.einsum("tmn->mtn", dg))
    assert np.max(np.abs(Gamma_fd - g.Gamma0)) < 1e-6


def test_round_sphere_sectional_positive_one():
    # sign-convention guard: K(X^Y) = g(R(X,Y)X, Y)/W = +1 on round spheres
    g = bundle("s3_hopf", (0.2, -0.1, 0.3))
    rng = np.random.default_rng(1)
    for _ in range(5):
        X, Y = rng.normal(size=3), rng.normal(size=3)
        assert g.sectional(X, Y) == pytest.approx(1.0, abs=1e-8)


def test_hyperbolic_plane_sectional_minus_one():
    s = load_structure(HYPERBOLIC)
    g = PointGeometry(s, (0.2, 1.3))
    assert g.sectional([1, 0], [0, 1]) == pytest.approx(-1.0, abs=1e-8)


def _scaled_chart(c, time_sign=1.0):
    return load_structure(f"""
dim = 3
dtilde_dim = 1
metric 0 0 = {time_sign * c!r}
metric 1 1 = {c!r}
metric 2 2 = {c!r} * (1 + x0^2)
dtilde 0 = 1, 0, 0
domain = [-1, 1] x [-1, 1] x [-1, 1]
""")


def test_sectional_degeneracy_is_relative_to_the_metric_scale():
    # K scales as 1/c under g -> c g at every scale; a plane is degenerate
    # when W is negligible against |g(X,X) g(Y,Y)| + g(X,Y)^2
    pt = (0.1, 0.2, 0.3)
    K1 = PointGeometry(_scaled_chart(1.0), pt).sectional([1, 0, 0], [0, 0, 1])
    assert K1 == pytest.approx(-0.980, abs=1e-3)
    for c in (1e-8, 1e8):
        g = PointGeometry(_scaled_chart(c), pt)
        assert g.sectional([1, 0, 0], [0, 0, 1]) == pytest.approx(K1 / c, rel=1e-10)
        with pytest.raises(SingularEvaluationError):
            g.sectional([1, 0, 0], [2, 0, 0])          # a dependent pair
        lorentz = PointGeometry(_scaled_chart(c, time_sign=-1.0), pt)
        with pytest.raises(SingularEvaluationError):
            lorentz.sectional([1, 1, 0], [0, 0, 1])    # a null plane


def test_riemann_flat_zero_and_symmetries():
    g = bundle("warped_product", (0.1, 0.2, 0.1, -0.2))
    R = g.R4
    assert np.max(np.abs(R + np.einsum("bacd->abcd", R))) < 1e-12
    assert np.max(np.abs(R + np.einsum("abdc->abcd", R))) < 1e-12
    assert np.max(np.abs(R - np.einsum("cdab->abcd", R))) < 1e-12
    flat = bundle("euclidean_product", (0.0, 0.0, 0.0))
    assert flat.riemann([1, 0, 0], [0, 1, 0], [0, 0, 1]).tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# mixed scalar curvature and partial Ricci tensor

def test_mixed_scalar_flat_product_zero():
    s = entry("euclidean_product").structure
    assert mixed_scalar(s, (0.3, 0.1, -0.4)) == 0.0


def test_mixed_scalar_hopf_equals_ric_N():
    s = entry("s3_hopf").structure
    for pt in s.interior_points(5, 2):
        g = PointGeometry(s, pt)
        assert g.smix == pytest.approx(2.0, abs=1e-9)
        assert g.ric_N == pytest.approx(2.0, abs=1e-9)


def test_mixed_scalar_contact_zero():
    s = entry("r3_contact").structure
    for pt in s.interior_points(5, 3):
        g = PointGeometry(s, pt)
        assert g.smix == pytest.approx(0.0, abs=1e-9)
        assert g.ric_N == pytest.approx(0.0, abs=1e-9)


def test_partial_ricci_proportionality_on_spheres():
    s7 = entry("s7_three_sasakian").structure
    pt = s7.interior_points(1, 4)[0]
    g = PointGeometry(s7, pt)
    assert np.max(np.abs(g.perp.r - 3.0 * np.diag(g.perp.eps))) < 1e-7
    assert np.max(np.abs(g.tan.r - 4.0 * np.diag(g.tan.eps))) < 1e-7

    s3 = entry("s3_hopf").structure
    g3 = PointGeometry(s3, (0.1, 0.2, -0.3))
    assert np.max(np.abs(g3.perp.r - (g3.ric_N / 2.0) * np.eye(2))) < 1e-8
    assert np.max(np.abs(partial_ricci(s3, (0.1, 0.2, -0.3), "perp") - g3.perp.r)) == 0.0


def test_partial_ricci_trace_is_smix():
    for name in ("r3_contact", "warped_product", "codim1_coth_tanh"):
        s = entry(name).structure
        pt = s.interior_points(1, 5)[0]
        g = PointGeometry(s, pt)
        tr = sum(g.perp.eps[i] * g.perp.r[i, i] for i in range(g.p))
        assert tr == pytest.approx(g.smix, abs=1e-10)


def test_partial_ricci_rejects_unknown_side():
    s = entry("warped_product").structure
    pt = s.interior_points(1, 5)[0]
    assert np.array_equal(partial_ricci(s, pt, "tan"), PointGeometry(s, pt).tan.r)
    with pytest.raises(SpecializationError):
        partial_ricci(s, pt, "bogus")


# ---------------------------------------------------------------------------
# extrinsic bundle

def test_contact_operator_matrices_in_reference_frame():
    e = entry("r3_contact")
    for pt in e.structure.interior_points(5, 6):
        g = PointGeometry(e.structure, pt)
        At = gallery.evaluate_quantity(e, g, "At_reference")
        Tt = gallery.evaluate_quantity(e, g, "Ttsharp_reference")
        assert np.max(np.abs(At - [[0, -1], [-1, 0]])) < 1e-9
        assert np.max(np.abs(Tt - [[0, 1], [-1, 0]])) < 1e-9
        assert float(np.trace(g.perp.A_ops[0])) == pytest.approx(0.0, abs=1e-9)
        assert np.max(np.abs(g.tan.H0)) < 1e-9


def test_contact_tcal_tilde_is_minus_gperp():
    for name in ("r3_contact", "s3_hopf"):
        g = bundle(name, (0.1, 0.05, -0.2))
        assert np.max(np.abs(g.perp.flat(g.perp.tcal) + np.diag(g.perp.eps))) < 1e-9
        assert g.perp.norm_T == pytest.approx(g.p, abs=1e-9)


def test_flat_product_everything_vanishes():
    g = bundle("euclidean_product", (0.4, 0.1, -0.1))
    for q in (g.tan.norm_h, g.perp.norm_h, g.tan.norm_T, g.perp.norm_T,
              g.tan.gHH, g.perp.gHH, g.tan.div_H, g.perp.div_H, g.smix,
              g.tan.s_ex, g.perp.s_ex):
        assert q == 0.0


def test_symmetries_and_traces():
    for name in ("warped_product", "codim1_coth_tanh", "nil4_flow"):
        s = entry(name).structure
        pt = s.interior_points(1, 7)[0]
        g = PointGeometry(s, pt)
        # h, h~ symmetric; T, T~ antisymmetric
        assert np.max(np.abs(g.tan.h - np.einsum("abi->bai", g.tan.h))) < 1e-12
        assert np.max(np.abs(g.tan.T + np.einsum("abi->bai", g.tan.T))) < 1e-12
        assert np.max(np.abs(g.perp.h - np.einsum("ija->jia", g.perp.h))) < 1e-12
        assert np.max(np.abs(g.perp.T + np.einsum("ija->jia", g.perp.T))) < 1e-12
        # trace identities of the operator dictionary
        assert np.trace(g.tan.casorati) == pytest.approx(g.tan.norm_h, abs=1e-10)
        assert np.trace(g.tan.tcal) == pytest.approx(-g.tan.norm_T, abs=1e-10)
        assert np.trace(g.tan.kcal) == pytest.approx(0.0, abs=1e-10)
        assert np.trace(g.perp.kcal) == pytest.approx(0.0, abs=1e-10)
        tr_psi = sum(g.perp.eps[i] * g.tan.psi[i, i] for i in range(g.p))
        assert tr_psi == pytest.approx(g.tan.norm_h - g.tan.norm_T, abs=1e-10)


def test_rank_one_distribution_forms():
    # h = H g-top and S_ex = 0 whenever the distribution is a line field
    for name in ("r3_contact", "s3_hopf", "nil4_flow", "lorentz_product"):
        s = entry(name).structure
        pt = s.interior_points(1, 8)[0]
        g = PointGeometry(s, pt)
        assert g.tan.s_ex == pytest.approx(0.0, abs=1e-10)
        hvec = np.array([g.perp.eps[i] * g.tan.h[0, 0, i] for i in range(g.p)])
        Hvec = g.Fb[g.n:] @ g.tan.H0 * np.array(g.perp.eps)
        assert np.max(np.abs(hvec - Hvec)) < 1e-10


def test_integrable_complement_kills_tilde_invariants():
    # codimension-one foliations have integrable complement-side tensors
    for name in ("codim1_coth_tanh", "codim1_tau_riccati", "warped_product"):
        g = bundle(name, entry(name).structure.interior_points(1, 9)[0])
        assert g.perp.norm_T == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(g.perp.kcal)) < 1e-12


# ---------------------------------------------------------------------------
# Lambda bilinear

def test_lambda_contraction_identity_random():
    g = bundle("r3_contact", (0.3, -0.2, 0.5))
    rng = np.random.default_rng(12)
    Pb, Qb = g.tan.alpha_b, g.tan.theta_b
    lam = g.lam(Pb, Qb)
    for _ in range(4):
        S = rng.normal(size=(3, 3))
        S = 0.5 * (S + S.T)
        lhs = g.frame_pairing(lam, S)
        rhs = 0.0
        for l in range(3):
            for m in range(3):
                rhs += (g.eps[l] * g.eps[m]
                        * 2.0 * float(Pb[l, m] @ np.diag(g.eps) @ S @ np.diag(g.eps) @ Qb[l, m]))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_lambda_alpha_thetatilde_mixed_value():
    # the displayed mixed-component formula for Lambda_{alpha, theta~}
    g = bundle("codim1_coth_tanh", (1.0, 0.2, -0.1))
    lam = g.lam(g.tan.alpha_b, g.perp.theta_b)
    n, p = g.n, g.p
    for a in range(n):
        for i in range(p):
            direct = 0.0
            for b in range(n):
                for j in range(p):
                    direct += 0.5 * (g.tan.eps[b] * g.perp.eps[j]
                                     * g.tan.h[b, a, j] * g.perp.T[j, i, b])
            assert lam[a, n + i] == pytest.approx(direct, abs=1e-12)


def test_phi_identities():
    for name in ("warped_product", "codim1_coth_tanh"):
        g = bundle(name, entry(name).structure.interior_points(1, 10)[0])
        lamhh = g.lam(g.tan.hb_full, g.tan.hb_full)
        phi = np.outer(g.tan.Hb_frame, g.tan.Hb_frame) - 0.5 * lamhh
        assert np.max(np.abs(phi - g.tan.phi_h)) < 1e-12
        assert np.max(np.abs(g.tan.phi_T
                             + 0.5 * g.lam(g.tan.Tb_full, g.tan.Tb_full))) < 1e-12


# ---------------------------------------------------------------------------
# divergences

def test_constant_and_radial_fields():
    s = entry("euclidean_product").structure
    g = PointGeometry(s, (0.2, 0.1, -0.3))
    const = [1.0, 2.0, -1.0]
    assert g.div_vector([c + 0.0 * g.seeds[0] for c in const]) == pytest.approx(0.0)
    radial = [g.seeds[i] for i in range(3)]
    assert g.div_vector(radial) == pytest.approx(3.0)
    assert g.div_vector(radial, mode="tan") == pytest.approx(1.0)
    assert g.div_vector(radial, mode="perp") == pytest.approx(2.0)


def test_divergence_sum_rule():
    for name in ("r3_contact", "warped_product"):
        g = bundle(name, entry(name).structure.interior_points(1, 11)[0])
        full = g.div_vector(g.perp.HJ)
        assert full == pytest.approx(g.div_vector(g.perp.HJ, "tan")
                                     + g.div_vector(g.perp.HJ, "perp"), abs=1e-10)


def test_div_H_against_finite_differences():
    # FD oracle: div V = (1/sqrt|g|) d_m (sqrt|g| V^m)
    e = entry("warped_product")
    s = e.structure
    pt = (0.1, 0.2, 0.1, -0.2)
    g = PointGeometry(s, pt)
    h = 1e-5

    def weighted_H(p):
        gg = PointGeometry(s, p)
        return gg.volume_density * gg.tan.H0

    acc = 0.0
    for m in range(4):
        pp, pm = list(pt), list(pt)
        pp[m] += h
        pm[m] -= h
        acc += (weighted_H(pp)[m] - weighted_H(pm)[m]) / (2 * h)
    assert g.tan.div_H == pytest.approx(acc / g.volume_density, abs=1e-7)


# ---------------------------------------------------------------------------
# the identity suite

IDENTITY_ENTRIES = ["euclidean_product", "r3_contact", "s3_hopf",
                    "codim1_coth_tanh", "warped_product", "nil4_flow",
                    "lorentz_product", "codim1_tau_riccati"]


@pytest.mark.parametrize("name", IDENTITY_ENTRIES)
def test_identity_suite_random_points(name):
    s = entry(name).structure
    for pt in s.interior_points(5, 21):
        res = identity_suite(s, pt)
        assert res["max"] < 1e-9, (name, pt, res)


def test_identity_suite_s7():
    s = entry("s7_three_sasakian").structure
    for pt in s.interior_points(2, 22):
        assert identity_suite(s, pt)["max"] < 1e-9


# ---------------------------------------------------------------------------
# frame independence and dualization

def test_frame_independence_under_respanning():
    base = entry("warped_product").structure
    text = base.source_text.replace("dtilde 0 = 1, 0, 0, 0",
                                    "dtilde 0 = 0.3, 1, 0, 0")
    text = text.replace("dtilde 1 = 0, 1, 0, 0", "dtilde 1 = 1, -0.2, 0, 0")
    other = load_structure(text)
    pt = (0.1, -0.2, 0.3, 0.2)
    a, b = PointGeometry(base, pt), PointGeometry(other, pt)
    for q in ("smix", "tan.norm_h", "perp.norm_h", "tan.norm_T", "perp.norm_T",
              "tan.gHH", "perp.gHH", "tan.s_ex", "perp.s_ex", "tan.div_H",
              "perp.div_H"):
        read = attrgetter(q)
        assert read(a) == pytest.approx(read(b), abs=1e-9), q


def _eps_invariants(eps, S):
    """(eps-trace, eps-norm) of a (0,2) form in a pseudo-orthonormal frame:
    both are independent of the frame chosen inside the block."""
    e = np.asarray(eps)
    S = np.asarray(S, float)
    return (float(np.einsum("i,ii->", e, S)),
            float(np.einsum("i,j,ij,ij->", e, e, S, S)))


def _swapped_structure(e):
    """The entry's structure with D-tilde and its complement exchanged."""
    from mixedcurv.exprlang import pretty
    lines = [f"dim = {e.structure.dim}",
             f"dtilde_dim = {e.structure.dim - e.structure.n}"]
    if e.structure.params:
        lines.append("params = " + ", ".join(
            f"{k}: {v}" for k, v in e.structure.params.items()))
    for (i, j), ast in sorted(e.structure.metric_upper.items()):
        lines.append(f"metric {i} {j} = {pretty(ast)}")
    for k, vec in enumerate(e.swap_span):
        lines.append(f"dtilde {k} = " + ", ".join(pretty(c) for c in vec))
    lines.append("domain = " + " x ".join(
        f"[{lo}, {hi}]" for lo, hi in e.structure.domain))
    return load_structure("\n".join(lines))


def test_dual_swap_exchanges_invariants():
    for name in ("warped_product", "r3_contact", "codim1_coth_tanh",
                 "euclidean_product", "nil4_flow"):
        e = entry(name)
        if e.swap_span is None:
            continue
        swapped = _swapped_structure(e)
        pt = e.structure.interior_points(1, 23)[0]
        a = PointGeometry(e.structure, pt)
        b = PointGeometry(swapped, pt)
        assert a.tan.norm_h == pytest.approx(b.perp.norm_h, abs=1e-9)
        assert a.perp.norm_h == pytest.approx(b.tan.norm_h, abs=1e-9)
        assert a.tan.norm_T == pytest.approx(b.perp.norm_T, abs=1e-9)
        assert a.perp.norm_T == pytest.approx(b.tan.norm_T, abs=1e-9)
        assert a.tan.gHH == pytest.approx(b.perp.gHH, abs=1e-9)
        assert a.tan.s_ex == pytest.approx(b.perp.s_ex, abs=1e-9)
        assert a.smix == pytest.approx(b.smix, abs=1e-9)
        # the rest of the block family, through frame-independent contractions
        for side, dual in (("tan", "perp"), ("perp", "tan")):
            A, B = getattr(a, side), getattr(b, dual)
            for q in ("casorati", "tcal"):
                got = _eps_invariants(A.eps, A.flat(getattr(A, q)))
                want = _eps_invariants(B.eps, B.flat(getattr(B, q)))
                assert got == pytest.approx(want, abs=1e-9), (name, side, q)
            assert (_eps_invariants(A.dual.eps, A.psi)
                    == pytest.approx(_eps_invariants(B.dual.eps, B.psi),
                                     abs=1e-9)), (name, side, "psi")
            assert (_eps_invariants(A.eps, A.r)
                    == pytest.approx(_eps_invariants(B.eps, B.r), abs=1e-9)), (
                name, side, "r")
            assert A.div_H == pytest.approx(B.div_H, abs=1e-9), (name, side)
        # E-main-0i of the entry is E-main-0iii of the swapped structure
        r0i = el.el_general(e.structure, pt, "E-main-0i").residual
        r0iii = el.el_general(swapped, pt, "E-main-0iii").residual
        assert (_eps_invariants(a.perp.eps, r0i)
                == pytest.approx(_eps_invariants(b.tan.eps, r0iii), abs=1e-9)), name


def test_bundle_freed_without_cycle_collection():
    # the block views must not form a reference cycle with their bundle: a
    # cycle keeps every bundle's jets alive until a full collection
    s = entry("r3_contact").structure
    gc.disable()
    try:
        g = PointGeometry(s, (0.1, 0.2, 0.3))
        g.summary()
        assert values(g.perp.theta_field).size and values(g.tan.h_field).size
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_fast_smix_matches_bundle():
    for name in ("r3_contact", "s3_hopf", "warped_product"):
        s = entry(name).structure
        pt = s.interior_points(1, 24)[0]
        g = PointGeometry(s, pt)
        fast, dens = smix_density_fast(s, pt)
        assert fast == pytest.approx(g.smix, abs=1e-10)
        assert dens == pytest.approx(g.volume_density, abs=1e-12)


def test_divergence_user_field_interface():
    from mixedcurv.geometry import divergence, random_perp_field
    s = entry("r3_contact").structure
    pt = (0.2, -0.1, 0.3)
    g = PointGeometry(s, pt)
    # vector field: the perp/full relation div-perp xi = div xi + g(xi, H)
    val_full = divergence(s, pt, lambda gm: random_perp_field(gm, 3))
    val_perp = divergence(s, pt, lambda gm: random_perp_field(gm, 3),
                          mode="perp")
    xi = random_perp_field(g, 3)
    xi0 = np.array([float(x.v) if hasattr(x, "v") else float(x) for x in xi])
    assert val_perp == pytest.approx(val_full + float(xi0 @ g.g0 @ g.tan.H0),
                                     abs=1e-10)
    # (1,2) field: matches the bundle's own divergence of h~
    M = divergence(s, pt, lambda gm: gm.perp.h_field)
    assert np.max(np.abs(M - g.div_12(g.perp.h_field))) == 0.0


def test_riemann_op_unit_sphere_closed_form():
    # paper-convention curvature of the unit round sphere:
    # R(X,Y)Z = g(X,Z) Y - g(Y,Z) X
    from mixedcurv.geometry import riemann
    s = entry("s3_hopf").structure
    pt = (0.15, -0.2, 0.1)
    g = PointGeometry(s, pt)
    rng = np.random.default_rng(3)
    for _ in range(3):
        X, Y, Z = (rng.normal(size=3) for _ in range(3))
        got = riemann(s, pt, X, Y, Z)
        want = float(X @ g.g0 @ Z) * Y - float(Y @ g.g0 @ Z) * X
        assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("big", [1e13, 1e15, math.exp(598)])
def test_inverse_of_widely_scaled_metric(big):
    # each pivot is judged against its own row, not the largest entry
    inv = values(jet_matrix_inverse(dense([[big, 0.0], [0.0, 1.0]], 2), 2)).tolist()
    assert inv == [[1.0 / big, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("M", [[[1.0, 1.0], [1.0, 1.0]],
                               [[0.0, 0.0], [0.0, 1.0]]])
def test_singular_metric_rejected(M):
    with pytest.raises(SingularEvaluationError):
        jet_matrix_inverse(dense(M, 2), 2)


@pytest.mark.parametrize("name", gallery.list_entries())
def test_order1_inverse_is_bit_identical_to_order2(name):
    # the bundle inverts the metric at order 1: nothing reads the Hessian of
    # the inverse, and its values (Gauss-Jordan on the values) and gradients
    # (-A^-1 dA A^-1) do not depend on the Hessians of the entries
    s = entry(name).structure
    for pt in s.interior_points(3, 31):
        g = PointGeometry(s, pt)
        full = jet_matrix_inverse(g.gJ, g.d)
        assert all(x.h is None for row in g.ginvJ for x in row)
        assert values(g.ginvJ).tobytes() == values(full).tobytes()
        assert gradients(g.ginvJ, g.d).tobytes() == gradients(full, g.d).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_nodewise_inverse_pivots_each_node_by_the_scalar_rule(data):
    # integer-valued entries with many zeros and ties: the nodes of one batch
    # need different pivot rows, and some are singular.  The values are the
    # loop's bits; the gradients come in closed form and agree to rounding
    N = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(1, 4))
    order = data.draw(st.sampled_from([1, 2]))
    entries = st.integers(-2, 2).map(float)
    pts = np.array([[data.draw(st.floats(-1, 1)) for _ in range(2)] for _ in range(N)])
    vals = np.array([[[data.draw(entries) for _ in range(d)] for _ in range(d)]
                     for _ in range(N)])
    x, y = seed(pts, order)

    def const(c):
        return ArrayJet(c, np.zeros((2, N)), np.zeros((2, 2, N)) if order == 2 else None)

    # the node jets of each entry, gathered into one field of shape (N, d, d)
    M = dense([[const(vals[:, i, j]) + (0.25 * x * y if (i + j) % 2 else 0.5 * x)
                for j in range(d)] for i in range(d)], 2)
    assert M.shape == (N, d, d)
    # nodes as scalar jets, by evaluating the same expressions on them
    want = []
    for k in range(N):
        xk, yk = seed(pts[k], order)
        Mk = [[vals[k, i, j] + 0.25 * xk * yk if (i + j) % 2 else vals[k, i, j] + 0.5 * xk
               for j in range(d)] for i in range(d)]
        try:
            want.append(scalar_matrix_inverse(Mk, d))
        except SingularEvaluationError:
            want.append(None)
    if any(w is None for w in want):
        with pytest.raises(SingularEvaluationError):
            jet_matrix_inverse(M, d)
        return
    got = jet_matrix_inverse(M, d)
    for k, w in enumerate(want):
        assert values(got[k]).tolist() == values(w).tolist()
        assert_close_to_loop(gradients(got[k], 2), gradients(w, 2))
