import numpy as np
import pytest

from mixedcurv import gallery
from mixedcurv.errors import SpecFormatError
from mixedcurv.geometry import BUNDLE_QUANTITIES, PointGeometry


def test_list_entries_contains_required_names():
    names = gallery.list_entries()
    for required in ("euclidean_product", "lorentz_product", "r3_contact",
                     "s3_hopf", "s7_three_sasakian", "codim1_coth_tanh",
                     "codim1_tau_riccati", "warped_product"):
        assert required in names
    assert len(names) >= 8


def test_list_entries_order():
    # the listing order of `mixedcurv gallery`; benchmark jobs sample
    # entries in this order
    assert gallery.list_entries() == [
        "euclidean_product", "lorentz_product", "r3_contact", "s3_hopf",
        "s7_three_sasakian", "codim1_coth_tanh", "codim1_tau_riccati",
        "warped_product", "nil4_flow"]


def test_every_expected_quantity_has_an_evaluator():
    for name in gallery.list_entries():
        for exp in gallery.load_entry(name).expected:
            assert (exp.quantity in BUNDLE_QUANTITIES
                    or exp.quantity in gallery.QUANTITIES), (name, exp.quantity)


def test_every_gallery_evaluator_serves_an_entry():
    used = {exp.quantity for name in gallery.list_entries()
            for exp in gallery.load_entry(name).expected}
    assert set(gallery.QUANTITIES) <= used
    assert not set(gallery.QUANTITIES) & set(BUNDLE_QUANTITIES)


def test_unknown_quantity():
    e = gallery.load_entry("r3_contact")
    geom = PointGeometry(e.structure, (0.1, 0.2, 0.3))
    with pytest.raises(SpecFormatError):
        gallery.evaluate_quantity(e, geom, "no_such_quantity")


def test_bundle_quantities_are_the_summary():
    for name, pt in (("r3_contact", (0.1, 0.2, 0.3)),
                     ("warped_product", None)):
        e = gallery.load_entry(name)
        pt = pt or e.structure.interior_points(1, 94)[0]
        geom = PointGeometry(e.structure, pt)
        summary = geom.summary()
        names = [q for q in BUNDLE_QUANTITIES
                 if q != "ric_N" or e.structure.n == 1]
        assert list(summary) == ["point"] + names
        for q in names:
            assert gallery.evaluate_quantity(e, geom, q) == summary[q]


def test_unknown_entry():
    with pytest.raises(SpecFormatError):
        gallery.load_entry("moebius_strip")


def test_every_expected_value_has_provenance():
    for name in gallery.list_entries():
        e = gallery.load_entry(name)
        for exp in e.expected:
            tag = exp.provenance.split(":")[0]
            assert tag in ("literature", "trivial", "derived")
            if tag == "derived":
                assert len(exp.provenance.split(":", 1)[1]) > 0   # oracle named


@pytest.mark.parametrize("name", gallery.list_entries())
def test_expected_tables_reproduce(name):
    e = gallery.load_entry(name)
    count = 2 if name == "s7_three_sasakian" else 10
    for pt in e.structure.interior_points(count, 90):
        geom = PointGeometry(e.structure, pt)
        for exp in e.expected:
            got = gallery.evaluate_quantity(e, geom, exp.quantity)
            dev = float(np.max(np.abs(np.asarray(got, float)
                                      - np.asarray(exp.value, float))))
            assert dev <= exp.tol, (name, exp.quantity, got, exp.value)


def test_r3_contact_expected_matrices():
    e = gallery.load_entry("r3_contact")
    geom = PointGeometry(e.structure, (0.37, -0.21, 0.64))
    At = gallery.evaluate_quantity(e, geom, "At_reference")
    Tt = gallery.evaluate_quantity(e, geom, "Ttsharp_reference")
    assert np.allclose(At, [[0, -1], [-1, 0]], atol=1e-9)
    assert np.allclose(Tt, [[0, 1], [-1, 0]], atol=1e-9)


def test_s7_entry_acceptance_checks():
    """The gates the three-Sasakian entry had to pass before being adopted:
    curvature identities of each contact structure and bracket closure."""
    e = gallery.load_entry("s7_three_sasakian")
    s = e.structure
    pt = s.interior_points(1, 91)[0]
    geom = PointGeometry(s, pt)
    g0 = geom.g0
    xis = [np.array(vec) for vec in
           [[_val(c) for c in v] for v in _eval_span(s, pt)]]

    # unit and pairwise orthogonal
    gram = np.array([[x @ g0 @ y for y in xis] for x in xis])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    # bracket closure [xi_a, xi_b] = c xi_c with a fixed structure constant;
    # the spanning fields close under brackets and the distribution is
    # integrable (T = 0)
    J = _jacobians(s, pt)
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        br = J[b] @ xis[a] - J[a] @ xis[b]
        resid = br - 2.0 * xis[c]
        assert np.max(np.abs(resid)) < 1e-8
    assert geom.tan.norm_T < 1e-9

    # curvature identities of a Sasakian structure on the unit sphere, in the
    # engine's curvature convention R(X,Y) = nab_Y nab_X - nab_X nab_Y + nab_[X,Y]:
    # R(X, xi)Y = -(eta(Y) X - g(X,Y) xi)
    rng = np.random.default_rng(5)
    for a in range(3):
        xi = xis[a]
        X = rng.normal(size=7)
        X = X - (X @ g0 @ xi) * xi
        Y = rng.normal(size=7)
        lhs = geom.riemann(X, xi, Y)
        eta_Y = float(xi @ g0 @ Y)
        gXY = float(X @ g0 @ Y)
        rhs = -(eta_Y * X - gXY * xi)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def _eval_span(s, pt):
    return s.dtilde_at(list(pt))


def _val(x):
    from mixedcurv.jets import value_of
    return value_of(x)


def _jacobians(s, pt, h=1e-6):
    d = s.dim
    J = []
    for k in range(s.n):
        jac = np.zeros((d, d))
        for m in range(d):
            pp, pm = list(pt), list(pt)
            pp[m] += h
            pm[m] -= h
            vp = [_val(c) for c in s.dtilde_at(pp)[k]]
            vm = [_val(c) for c in s.dtilde_at(pm)[k]]
            jac[:, m] = (np.array(vp) - np.array(vm)) / (2 * h)
        J.append(jac)
    return J


def test_hopf_field_is_unit_killing_and_geodesic():
    e = gallery.load_entry("s3_hopf")
    s = e.structure
    for pt in s.interior_points(5, 92):
        geom = PointGeometry(s, pt)
        xi = np.array([_val(c) for c in s.dtilde_at(list(pt))[0]])
        assert float(xi @ geom.g0 @ xi) == pytest.approx(1.0, abs=1e-12)
        assert geom.tan.norm_h < 1e-12 and geom.perp.norm_h < 1e-12


def test_criticality_flags_match_el_reports():
    from mixedcurv import euler_lagrange as el
    tol = 1e-6

    def agrees(flag, norm):
        return norm <= tol if flag else norm >= 10 * tol

    # the claims that `verify el` reports as skipped: no evaluator for
    # P-flows, and ELtildeT is registered for rank-one D-tilde only
    skipped = {}
    for name in gallery.list_entries():
        e = gallery.load_entry(name)
        runnable = el.applicable(e.structure)
        missing = {eq for eq in e.criticality if eq not in runnable}
        if missing:
            skipped[name] = missing
    assert skipped == {
        "euclidean_product": {"P-flows"},
        "s3_hopf": {"P-flows"},
        "nil4_flow": {"P-flows"},
        "s7_three_sasakian": {"ELtildeT1", "ELtildeT2", "ELtildeT3"},
    }

    for name in gallery.list_entries():
        e = gallery.load_entry(name)
        s = e.structure
        runnable = el.applicable(s)
        npts = 1 if name == "s7_three_sasakian" else 3
        for pt in s.interior_points(npts, 93):
            geom = PointGeometry(s, pt)
            for eq, flag in e.criticality.items():
                if eq in runnable:
                    norm = el.EQUATIONS[eq].run(geom).norm
                    assert agrees(flag, norm), (name, eq, norm)
            # the skipped claims, checked directly
            if "P-flows" in e.criticality:
                rep = el.el_geodesic_riemannian_flow(geom)
                norm = max(rep["E-1geod-Riem"].norm, rep["geodriemflowiii"].norm)
                assert agrees(e.criticality["P-flows"], norm), (name, norm)
            if name == "s7_three_sasakian":
                reps = el.el_tildeT_action(geom)
                for eq in ("ELtildeT1", "ELtildeT2", "ELtildeT3"):
                    assert agrees(e.criticality[eq], reps[eq].norm), (eq, reps[eq].norm)


def test_spec_texts_hash_stable():
    a = gallery.load_entry("r3_contact").structure.content_hash
    b = gallery.load_entry("r3_contact").structure.content_hash
    assert a == b and len(a) == 64
