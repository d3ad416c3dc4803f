"""The closed-form frame jets against the jet Gram-Schmidt sweep.

``orthonormal_frame`` takes the values, signs and pivots of a frame from its
float pass and the frame's jets from one triangular correction.  Its value,
gradient and Hessian must agree with the sweep of ``gram_schmidt.py`` over
the same candidate rows to 1e-13: at one point on every gallery entry and
seeded structure, on a batch of metrics g + sB (also where members take
different signs), and at node seeds.  The frame's value is the float pass's
frame, and its rows are triangular in the candidate rows, so the pivots are
the sweep's.  A degenerate complement names its failing node.  The
correction makes the same number of jet products at every dimension.
"""

import numpy as np
import pytest

from mixedcurv import gallery, jets
from mixedcurv.errors import DegenerateDistributionError
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import values
from mixedcurv.structure import load_structure, orthonormal_frame
from gram_schmidt import reference_frame
from test_batched_bundle import STEPS, _members, _stack, _structure

SEEDED = [(1, 3, 1), (2, 4, 2, True), (3, 5, 2, True), (4, 6, 3)]


def _check(gmat, span, d, point=None):
    """The frame of ``gmat`` and ``span`` against the sweep; returns the
    signs."""
    fr = orthonormal_frame(gmat, span, d, point=point)
    ref, signs, pivots = reference_frame(gmat, span, d, point=point)
    E = fr.vectors
    assert np.array_equal(np.array(fr.signs), signs)
    for got, want in ((E.v, ref.v), (E.g, ref.g), (E.h, ref.h)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13), np.max(np.abs(got - want))
    # the rows of E are triangular in the candidate rows: span, then pivots
    batch = E.shape[:-2]
    n = values(span).shape[-2]
    W0 = np.concatenate((np.broadcast_to(values(span), batch + (n, d)),
                         np.eye(d)[pivots]), axis=-2)
    T = np.linalg.solve(W0.mT, E.v.mT).mT
    assert np.max(np.abs(np.triu(T, 1))) <= 1e-13 * np.max(np.abs(T))
    return signs


def _bundle(key):
    s, pt = _structure(key)
    geom = PointGeometry(s, pt)
    return s, pt, geom, geom._dtilde_fn(geom.seeds)


@pytest.mark.parametrize("key", gallery.list_entries() + SEEDED)
def test_frame_matches_the_sweep_at_a_point(key):
    s, pt, geom, span = _bundle(key)
    _check(geom.gJ, span, s.dim, pt)
    floats = orthonormal_frame(values(geom.gJ).tolist(), values(span).tolist(), s.dim)
    assert np.array_equal(values(geom.frameJ.vectors), floats.vectors)
    assert np.array_equal(geom.frameJ.signs, floats.signs)


@pytest.mark.parametrize("key", ["r3_contact", "lorentz_product", "s7_three_sasakian"]
                         + SEEDED[1:])
def test_frame_matches_the_sweep_on_a_batch(key):
    s, pt, geom, span = _bundle(key)
    batch = _stack(_members(s, pt, STEPS))
    assert batch.shape[0] == 6
    _check(batch, span, s.dim, pt)


def test_members_with_different_signs_match_the_sweep():
    s, pt, geom, span = _bundle("swap")
    steps = [(-1, 0.0), (-1, 0.3), (-1, 1.0), (0, 0.3), (-1, 1.2)]
    signs = _check(_stack(_members(s, pt, steps)), span, s.dim, pt)
    assert len({tuple(x) for x in signs.tolist()}) >= 2


@pytest.mark.parametrize("key", ["r3_contact", "lorentz_product", "pivots"] + SEEDED[1:])
def test_frame_matches_the_sweep_at_node_seeds(key):
    s = _structure(key)[0]
    geom = PointGeometry(s, np.array(s.interior_points(7, 5)))
    _check(geom.gJ, geom._dtilde_fn(geom.seeds), s.dim, geom.point)


def test_a_degenerate_complement_names_its_failing_node():
    # g = diag(1, 1, 0) at the second node only: e1 completes the frame, and
    # the last candidate e2 is null there, as at that node alone
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = 1\nmetric 1 1 = 1\n"
                       "metric 2 2 = x0\ndtilde 0 = 1, 0, 0\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.1, 0.2], [0.3, 0.0, 0.0]])
    for where in (pts, pts[1]):
        with pytest.raises(DegenerateDistributionError) as err:
            PointGeometry(s, where).frameJ
        assert err.value.point == (0.0, 0.1, 0.2)
        assert str(err.value) == ("no non-null candidate for the orthogonal complement "
                                  "at point (0.0, 0.1, 0.2)")


def test_one_frame_makes_the_same_number_of_jet_products_at_every_dimension(monkeypatch):
    calls = []
    product = jets._product

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(jets, "_product", counted)
    counts = {}
    for key in ["r3_contact", "lorentz_product", "s7_three_sasakian"]:
        s, pt, geom, span = _bundle(key)
        gmat = geom.gJ
        calls.clear()
        orthonormal_frame(gmat, span, s.dim, point=pt)
        counts[s.dim] = len(calls)
    assert counts == {3: 6, 4: 6, 7: 6}
