"""s* and the block-scaling law against the frame-free oracle of
``block_scaling``.

Scaling the complement block D by phi (g_phi = g on D-tilde plus phi g on
D) gives dvol_phi = phi^(p/2) dvol and

    S_mix(phi) = phi^-2 |T~|^2 + phi^-1 (s_ex + div H)_D~ + (s~_ex + div H~)
                 + phi |T|^2,

and scaling D-tilde instead swaps the blocks.  ``euler_lagrange.s_star``
assembles the phi-derivative of S_mix dvol from the blocks' frame
quantities; the oracle takes it by finite differences of ``smix_density``.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from block_scaling import s_star as oracle_s_star
from block_scaling import scaled_geometry
from mixedcurv import euler_lagrange as el
from mixedcurv import gallery
from mixedcurv.geometry import PointGeometry, smix_density
from test_random_structures import generated_structures, seeded_structure

SIDES = ("perp", "tan")
# the bound of the two-assembly flow check this oracle replaced
S_STAR_TOL = 1e-9
LAW_TOL = 1e-12
FACTORS = (0.5, 0.7, 1.0, 2.0, 3.7)


def struct(name):
    return gallery.load_entry(name).structure


def _assert_s_star_matches_oracle(s, point):
    geom = PointGeometry(s, point)
    for side in SIDES:
        got, want = el.s_star(geom, side), oracle_s_star(s, point, side)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.subtract(got, want))) <= S_STAR_TOL, side


@pytest.mark.parametrize("name", gallery.list_entries())
def test_s_star_matches_oracle_on_gallery(name):
    s = struct(name)
    for pt in s.interior_points(3, 5):
        _assert_s_star_matches_oracle(s, pt)


@pytest.mark.parametrize("name", ["s7_three_sasakian", "warped_product", "codim1_coth_tanh"])
def test_s_star_matches_oracle_on_node_bundles(name):
    s = struct(name)
    _assert_s_star_matches_oracle(s, np.array(s.interior_points(5, 9)))


@pytest.mark.parametrize("seed, d, n, lorentz",
                         [(1, 3, 1, False), (4, 4, 2, True), (6, 5, 3, True)])
def test_s_star_matches_oracle_on_seeded_structures(seed, d, n, lorentz):
    _assert_s_star_matches_oracle(*seeded_structure(seed, d, n, lorentz))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(generated_structures())
def test_s_star_matches_oracle_on_generated_structures(data):
    _assert_s_star_matches_oracle(*data)


@pytest.mark.parametrize("name", ["r3_contact", "s3_hopf"])
def test_oracle_reproduces_frozen_s_star_rows(name):
    entry = gallery.load_entry(name)
    rows = {r.quantity: r for r in entry.expected}
    pts = np.array(entry.structure.interior_points(4, 17))
    for side in SIDES:
        row = rows[f"s_star_{side}"]
        got = oracle_s_star(entry.structure, pts, side)
        assert np.max(np.abs(got - row.value)) <= row.tol, side


def _law_terms(geom, side):
    """The four groups of S_mix with the ``side`` block scaled by phi, keyed
    by their power of phi."""
    B = getattr(geom, side)
    A = B.dual
    return {-2: B.norm_T, -1: A.s_ex + A.div_H, 0: B.s_ex + B.div_H, 1: A.norm_T}


@pytest.mark.parametrize("case", [*gallery.list_entries(), (1, 3, 1, False),
                                  (4, 4, 2, True), (6, 5, 3, True)], ids=str)
def test_block_scaling_law(case):
    """Each group scales with its power of phi, the volume density with
    phi^(k/2), and the frame-free S_mix is their sum, to 1e-12 of the size
    the sum would have without cancellation (1 at the least).  A gallery
    entry is read at two nodes, a seeded structure at its point.  The
    scaled block's |T|^2 vanishes where it has rank one (r3_contact's
    D-tilde, the codim-1 entries' D)."""
    if isinstance(case, str):
        s = struct(case)
        pts = np.array(s.interior_points(2, 41))
    else:
        s, pt = seeded_structure(*case)
        pts = np.array([pt])
    base = PointGeometry(s, pts)
    for side in SIDES:
        k = s.dim - s.n if side == "perp" else s.n
        terms = _law_terms(base, side)
        if k == 1:      # a rank-one block is integrable
            assert np.all(terms[-2] == pytest.approx(0.0, abs=LAW_TOL)), side
        for phi in FACTORS:
            geom = scaled_geometry(s, pts, side, phi)
            want = {j: phi ** j * t for j, t in terms.items()}
            tol = LAW_TOL * np.maximum(sum(np.abs(w) for w in want.values()), 1.0)
            for j, got in _law_terms(geom, side).items():
                assert np.all(np.abs(got - want[j]) <= tol), (side, phi, j)
            smix, dvol = smix_density(geom)
            assert np.all(np.abs(smix - sum(want.values())) <= tol), (side, phi)
            np.testing.assert_allclose(dvol, phi ** (k / 2) * base.volume_density,
                                       rtol=LAW_TOL, atol=0)
