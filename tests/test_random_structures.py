"""Checks on generic, manufactured structures.

The gallery entries are special (contact, Sasakian, umbilical, warped), and
special structures hide faults: a term that pairs alpha of one block with
alpha or theta of the other reads 0 on every one of them.  Here structures
are generated as spec text and go through ``load_structure`` alone:

- metric (i, j) = sig_i delta_ij + three terms c x_a x_b + three terms
  c sin(x_a), |c| <= 0.15 (sig_0 = -1 on a Lorentzian structure);
- dtilde k = e_k + one term c x_a x_b + one term c sin(x_a) per component,
  |c| <= 0.3;
- domain [-0.5, 0.5]^d.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.geometry import PointGeometry, identity_suite
from mixedcurv.jets import values
from mixedcurv.structure import load_structure


def spec_text(d, n, lorentz, coef, index):
    """Spec text of a generated structure; ``coef(cmax)`` draws a coefficient
    in [-cmax, cmax] and ``index(d)`` a coordinate index."""
    def terms(count, cmax):
        prods = [f"{coef(cmax):+.6f}*x{index(d)}*x{index(d)}" for _ in range(count)]
        sines = [f"{coef(cmax):+.6f}*sin(x{index(d)})" for _ in range(count)]
        return " ".join(prods + sines)

    lines = [f"dim = {d}", f"dtilde_dim = {n}"]
    for i in range(d):
        for j in range(i, d):
            base = ("-1" if lorentz and i == 0 else "1") if i == j else "0"
            lines.append(f"metric {i} {j} = {base} {terms(3, 0.15)}")
    for k in range(n):
        comps = [f"{int(m == k)} {terms(1, 0.3)}" for m in range(d)]
        lines.append(f"dtilde {k} = " + ", ".join(comps))
    lines.append("domain = " + " x ".join(["[-0.5, 0.5]"] * d))
    return "\n".join(lines) + "\n"


def seeded_structure(seed, d, n, lorentz=False):
    """A fixed generated structure and a point in [-0.3, 0.3]^d."""
    rng = random.Random(seed)
    text = spec_text(d, n, lorentz, lambda c: rng.uniform(-c, c), rng.randrange)
    rng = random.Random(seed)
    return load_structure(text), tuple(rng.uniform(-0.3, 0.3) for _ in range(d))


@st.composite
def generated_structures(draw, max_dim=5):
    """(structure, point): dim 3..max_dim, 1 <= n < dim, Lorentzian or not.
    The coefficients come from a drawn seed, so even the simplest example
    is a generic structure."""
    d = draw(st.integers(3, max_dim))
    n = draw(st.integers(1, d - 1))
    lorentz = draw(st.booleans())
    return seeded_structure(draw(st.integers(0, 2**32 - 1)), d, n, lorentz)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(generated_structures())
def test_identity_suite_on_generated_structures(data):
    s, pt = data
    assert identity_suite(s, pt)["max"] <= 1e-12


def _failed_verdicts(s, pt, seed):
    bad = []
    for klass in ("perp", "tan"):
        v = va.random_variation(s, klass, seed, degree=2)
        rep = va.verify_first_variation(s, v, pt)
        assert len(rep) == (8 if klass == "perp" else 6)
        bad += [(klass, f, r.discrepancies[-1], r.rhs)
                for f, r in rep.items() if not r.verdict]
    return bad


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(generated_structures(max_dim=4), st.integers(0, 1000))
def test_first_variation_verdicts_on_generated_structures(data, seed):
    s, pt = data
    assert _failed_verdicts(s, pt, seed) == []


# Fixed structures on which the mixed-block term of d|h_B|^2 is not zero:
# a wrong term there fails E-tildeh-gen and E-h2T2-D1.
@pytest.mark.parametrize("seed, d, n, lorentz",
                         [(1, 3, 1, False), (3, 4, 1, False), (5, 3, 2, True)])
def test_first_variation_verdicts_on_fixed_structures(seed, d, n, lorentz):
    s, pt = seeded_structure(seed, d, n, lorentz)
    assert _failed_verdicts(s, pt, 1) == []


def test_action_derivative_matches_gradient_pairing_generated():
    # the shape of test_variations.test_action_derivative_matches_gradient_pairing
    # on a generic structure, where the J_mix gradient's mixed-block term counts
    s, _ = seeded_structure(6, 3, 1)
    box = ((-0.45, 0.45),) * 3
    v = va.random_variation(s, "perp", seed=1, box=box, degree=2)
    grad = va.jmix_gradient_pairing(s, v, el.QuadratureSpec(box=box, grid=8))
    vals = {}
    for grid in (8, 16):
        q = el.QuadratureSpec(box=box, grid=grid)
        vals[grid] = va.action_derivative(s, v, q, "J_mix", t_step=1e-3)
    # The refinement check compares the grid-8 pairing with FD at grids 8 and
    # 16.  It relies on the grid-8 FD quadrature error dominating the grid-8
    # pairing's own error (the divergence terms the pairing drops integrate to
    # zero only in the limit), which holds on this box.
    e8, e16 = abs(vals[8] - grad), abs(vals[16] - grad)
    assert e16 < e8 / 3.0                       # observed convergence
    assert e16 <= 3.0 * (abs(vals[16] - vals[8]) + 1e-8)


def test_nabla_N_hsc_is_the_covariant_derivative_of_h_sc():
    # nabla_N h_sc against a construction that shares no jet with it: a
    # central difference of h_sc = eps_N <h, N-flat> along N, each side read
    # off its own bundle, plus the connection terms from Gamma0.  A generated
    # structure, since N-flat is covariantly constant along N on the gallery's
    # codimension-one entries and a frozen N-flat passes there.
    s, pt = seeded_structure(1, 3, 2)
    geom = PointGeometry(s, pt)
    k = geom.n                       # the complement's unit normal N = e_k
    N = geom.F[k]

    def hsc(x):
        b = PointGeometry(s, x)
        return b.perp.eps[0] * np.tensordot(b.Fb[k], values(b.tan.h_field), axes=(0, 0))

    step = 1e-5
    H = hsc(pt)
    dH = (hsc(np.add(pt, step * N)) - hsc(np.subtract(pt, step * N))) / (2.0 * step)
    G = geom.Gamma0
    cov = dH - np.einsum("kmn,m,kr->nr", G, N, H) - np.einsum("kmr,m,nk->nr", G, N, H)
    F = geom.F[:geom.n]
    want = F @ cov @ F.T
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(geom.tan.nabla_N_hsc - want)) < 1e-8
