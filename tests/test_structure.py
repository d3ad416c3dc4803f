import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import gallery
from mixedcurv.errors import (DegenerateDistributionError, DomainError,
                              NameResolutionError, SpecFormatError)
from mixedcurv.euler_lagrange import QuadratureSpec, volume
from mixedcurv.geometry import identity_suite, smix_density_fast
from mixedcurv.jets import seed
from mixedcurv.structure import (DEGENERACY_TOL, _float_pass, adapted_frame, load_structure,
                                 orthonormal_frame, signature)

FLAT = """
dim = 3
dtilde_dim = 1
metric 0 0 = 1
metric 1 1 = 1
metric 2 2 = 1
dtilde 0 = 1, 0, 0
domain = [-1, 1] x [-1, 1] x [-1, 1]
"""


def test_load_gallery_contact_spec():
    e = gallery.load_entry("r3_contact")
    assert e.structure.dim == 3
    assert e.structure.n == 1
    g = e.structure.metric_at([0.0, 0.0, 0.0])
    assert np.allclose(g, 0.25 * np.eye(3))


def test_load_flat_product():
    s = load_structure(FLAT)
    assert (s.dim, s.n, s.p) == (3, 1, 2)
    assert np.allclose(s.metric_at([0.3, -0.2, 0.9]), np.eye(3))


def test_undeclared_variable_rejected():
    with pytest.raises(NameResolutionError):
        load_structure(FLAT.replace("metric 2 2 = 1", "metric 2 2 = 1 + x9"))


def test_lower_triangle_rejected():
    with pytest.raises(SpecFormatError):
        load_structure(FLAT + "metric 1 0 = 2\n")


def test_missing_keys_and_bad_domain():
    with pytest.raises(SpecFormatError):
        load_structure("dim = 2\n")
    with pytest.raises(SpecFormatError):
        load_structure(FLAT.replace("[-1, 1] x [-1, 1] x [-1, 1]",
                                    "[-1, 1] x [-1, 1]"))
    with pytest.raises(SpecFormatError):
        load_structure(FLAT.replace("dtilde_dim = 1", "dtilde_dim = 3"))


@pytest.mark.parametrize("line, key", [("nmae = typo", "nmae"),
                                       ("parms = c: 1", "parms"),
                                       ("metric 0 = 1", "metric 0")])
def test_unknown_key_rejected(line, key):
    with pytest.raises(SpecFormatError, match=f"line 1: unknown key '{key}'"):
        load_structure(line + FLAT)


def test_metric_at_contact_origin_matches_quarter_identity():
    e = gallery.load_entry("r3_contact")
    g = e.structure.metric_at([0.0, 1.0, 0.0])
    assert g[0][0] == pytest.approx(0.5)      # (1 + y^2 + z^2)/4 at y=1
    assert g[0][2] == pytest.approx(-0.25)
    assert g[2][0] == g[0][2]                 # symmetry exact by construction


def test_lorentz_metric_values():
    e = gallery.load_entry("lorentz_product")
    g = e.structure.metric_at([0.5, 0.1, 0.2, -0.3])
    assert np.allclose(g, np.diag([-1, 1, 1, 1]))


# ---------------------------------------------------------------------------
# frames

def test_euclidean_frame_is_coordinate_basis():
    s = load_structure(FLAT)
    fr = adapted_frame(s, (0.2, 0.1, -0.5))
    assert np.allclose(fr.E, [[1, 0, 0]])
    assert np.allclose(fr.Eperp, [[0, 1, 0], [0, 0, 1]])
    assert fr.eps_tan.tolist() == [1.0] and fr.eps_perp.tolist() == [1.0, 1.0]


def test_contact_frame_normalizes_reeb_field():
    e = gallery.load_entry("r3_contact")
    fr = adapted_frame(e.structure, (0.0, 1.0, 2.0))
    assert np.allclose(fr.E[0], [0, 0, 2])    # xi = 2 d/dz


def test_frame_orthonormality_random_points():
    counts = {"r3_contact": 1000, "s3_hopf": 1000, "codim1_coth_tanh": 100,
              "nil4_flow": 100, "s7_three_sasakian": 3, "lorentz_product": 100}
    for name, npts in counts.items():
        s = gallery.load_entry(name).structure
        for pt in s.interior_points(npts, 5):
            fr = adapted_frame(s, pt)
            g = np.array(s.metric_at(list(pt)))
            F = np.array(fr.vectors)
            gram = F @ g @ F.T
            assert np.max(np.abs(gram - np.diag(fr.signs))) < 1e-10


def test_indefinite_two_dim_frame_closed_form():
    # D-tilde spanned by w = d0 + 0.5 d1 in diag(-1, 1): g(w,w) = -0.75
    s = load_structure("""
dim = 2
dtilde_dim = 1
metric 0 0 = -1
metric 1 1 = 1
dtilde 0 = 1, 0.5
domain = [-1, 1] x [-1, 1]
""")
    fr = adapted_frame(s, (0.0, 0.0))
    norm = math.sqrt(0.75)
    assert fr.eps_tan.tolist() == [-1.0]
    assert fr.eps_perp.tolist() == [1.0]
    assert np.allclose(fr.E[0], [1 / norm, 0.5 / norm], atol=1e-12)
    g = np.diag([-1.0, 1.0])
    F = np.array(fr.vectors)
    assert np.max(np.abs(F @ g @ F.T - np.diag([-1, 1]))) < 1e-12


def test_null_distribution_rejected():
    s = load_structure("""
dim = 2
dtilde_dim = 1
metric 0 0 = -1
metric 1 1 = 1
dtilde 0 = 1, 1
domain = [-1, 1] x [-1, 1]
""")
    with pytest.raises(DegenerateDistributionError):
        adapted_frame(s, (0.0, 0.0))


@pytest.mark.parametrize("big", [1e8, 1e10, 1e15])
def test_frame_blocks_of_different_scale(big):
    # nullness is judged against the size of g(v, v) without cancellation,
    # not against the largest metric entry
    s = load_structure(f"""
dim = 2
dtilde_dim = 1
metric 0 0 = {big!r}
metric 1 1 = 1
dtilde 0 = 1, 0
domain = [-1, 1] x [-1, 1]
""")
    fr = adapted_frame(s, (0.0, 0.0))
    assert fr.signs.tolist() == [1.0, 1.0]
    assert np.allclose(fr.vectors, [[big ** -0.5, 0.0], [0.0, 1.0]],
                       rtol=1e-15, atol=0.0)


def test_degenerate_metric_rejected():
    with pytest.raises(DegenerateDistributionError):
        orthonormal_frame([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0]], 2)


def test_frame_jets_match_finite_differences():
    e = gallery.load_entry("r3_contact")
    s = e.structure
    pt = (0.2, -0.3, 0.4)
    jets = seed(pt, 1)
    fr = adapted_frame(s, jets,
                       metric=s.metric_at(jets), dtilde=s.dtilde_at(jets))
    h = 1e-5
    for mu in range(3):
        pp = list(pt)
        pm = list(pt)
        pp[mu] += h
        pm[mu] -= h
        fp = adapted_frame(s, pp)
        fm = adapted_frame(s, pm)
        for k in range(3):
            for comp in range(3):
                fd = (fp.vectors[k][comp] - fm.vectors[k][comp]) / (2 * h)
                jet = fr.vectors[k][comp]
                got = jet.g[mu] if hasattr(jet, "g") else 0.0
                assert got == pytest.approx(fd, abs=5e-8)


def test_signature_stable_and_correct():
    assert signature(gallery.load_entry("r3_contact").structure,
                     (0.1, 0.1, 0.1)) == ((1.0,), (1.0, 1.0))
    assert signature(gallery.load_entry("lorentz_product").structure,
                     (0.0, 0.0, 0.0, 0.0)) == ((-1.0,), (1.0, 1.0, 1.0))


def test_domain_guard():
    s = load_structure(FLAT)
    with pytest.raises(DomainError):
        s.require_inside((2.0, 0.0, 0.0))
    s.require_inside((0.5, 0.5, 0.5))


def test_interior_points_reproducible():
    s = load_structure(FLAT)
    assert s.interior_points(4, 7) == s.interior_points(4, 7)
    assert s.interior_points(4, 7) != s.interior_points(4, 8)
    for pt in s.interior_points(50, 3):
        assert s.contains(pt)


def test_signature_instability_detected():
    s = load_structure("""
dim = 2
dtilde_dim = 1
metric 0 0 = x0
metric 1 1 = 1
dtilde 0 = 1, 0
domain = [-1, 1] x [-1, 1]
""")
    from mixedcurv.errors import SignatureInstabilityError
    with pytest.raises(SignatureInstabilityError):
        signature(s, (0.5, 0.0))


def test_a_candidate_reduced_to_rounding_noise_is_not_a_pivot():
    # g = diag(exp(200), 1) with span e0: e0 less its projection on the span
    # is rounding noise whose g-square (about 1e54) exceeds e1's, yet it lies
    # in the span; taking it made the candidate rows singular
    g = [[math.exp(200.0), 0.0], [0.0, 1.0]]
    frame, signs, pivots = _float_pass(np.array(g), np.array([[1.0, 0.0]]), DEGENERACY_TOL,
                                       (0.2, 0.5))
    assert pivots.tolist() == [1] and signs.tolist() == [1.0, 1.0]
    s = load_structure("dim = 2\ndtilde_dim = 1\nmetric 0 0 = exp(1000*x0)\n"
                       "metric 1 1 = 1\ndtilde 0 = 1, 0\ndomain = [0, 1] x [0, 1]\n")
    assert identity_suite(s, (0.2, 0.5))["max"] < 1e-9


@pytest.mark.parametrize("pt", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), ()])
def test_a_point_of_the_wrong_length_is_a_domain_error(pt):
    s = gallery.load_entry("r3_contact").structure
    assert not s.contains(pt)
    with pytest.raises(DomainError, match=f"has {len(pt)} coordinates, chart has 3"):
        identity_suite(s, pt)


@pytest.mark.parametrize("pt", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)])
def test_the_quadrature_integrand_checks_its_point(pt):
    # smix_density_fast builds its bundle as every reader does, so a point of
    # the wrong length or outside the box is a domain error there too
    s = gallery.load_entry("r3_contact").structure
    with pytest.raises(DomainError, match=f"has {len(pt)} coordinates, chart has 3"):
        smix_density_fast(s, pt)
    with pytest.raises(DomainError, match=r"^point \(2.0, 0.0, 0.0\) outside domain box"):
        smix_density_fast(s, (2.0, 0.0, 0.0))


def test_require_inside_takes_node_arrays_of_any_length():
    s = load_structure(FLAT)
    s.require_inside(np.zeros((0, 3)))
    with pytest.raises(DomainError, match=r"^point \(0.5, 0.5\) has 2 coordinates, chart has 3"):
        s.require_inside(np.full((4, 2), 0.5))


_EDGE = st.sampled_from([-1.0 - 2e-12, -1.0 - 1e-12, -1.0, 0.0, 1.0, 1.0 + 1e-12,
                         1.0 + 2e-12, math.nan])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_EDGE, _EDGE, _EDGE), min_size=1, max_size=6))
def test_the_node_test_reads_each_node_by_the_scalar_rule(nodes):
    # the domain box widened by 1e-12, node by node; the first node outside
    # it is the one the error names
    s = load_structure(FLAT)
    want = [all(-1.0 - 1e-12 <= x <= 1.0 + 1e-12 for x in node) for node in nodes]
    assert s.contains(np.array(nodes)).tolist() == want
    assert [bool(s.contains(node)) for node in nodes] == want
    if all(want):
        s.require_inside(np.array(nodes))
        return
    with pytest.raises(DomainError) as err:
        s.require_inside(np.array(nodes))
    assert str(err.value) == f"point {nodes[want.index(False)]} outside domain box {s.domain}"


def test_a_box_of_the_wrong_length_is_a_domain_error():
    s = gallery.load_entry("r3_contact").structure
    with pytest.raises(DomainError, match="box needs 3 intervals, got 2"):
        volume(s, QuadratureSpec(box=((-0.5, 0.5), (-0.5, 0.5)), grid=2))
    with pytest.raises(DomainError, match="box needs 3 intervals, got 4"):
        s.require_box([(-0.5, 0.5)] * 4)
