"""The equation registry and the gallery quantities on node bundles.

Every runner of ``euler_lagrange.EQUATIONS``, ``el_geodesic_riemannian_flow``,
``s_star`` and every expected gallery quantity reads a bundle over N nodes
as N bundles at one point each: one value per node (the node axis first),
within 1e-12 max(1, |v|) of the value v that the bundle at that node alone
gives, and the same error class and message where that bundle raises one.
The multiplier rows of ``el_volume_preserving`` (``critical_metrics.py``)
and the blocks of ``classify`` (``variation_checks.py``), which read their
points as one node bundle, equal their one-point runs.
"""

import math

import numpy as np
import pytest

from mixedcurv import gallery
from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.errors import MixedCurvError, SpecializationError
from mixedcurv.geometry import PointGeometry
from mixedcurv.structure import load_structure

from critical_metrics import el_volume_preserving
from test_random_structures import seeded_structure
from test_shared_bundle import NULL_DISTRIBUTION
from variation_checks import classify

NODES = 5
# the generated structures of test_shared_bundle and test_random_structures:
# rank-one D-tilde (the flow systems), p = 1 (the codimension-one systems)
# and Lorentzian ones
SEEDED = [(1, 3, 1, False), (2, 3, 2, True), (3, 4, 1, False), (4, 4, 3, False),
          (5, 4, 2, True)]


def _structure(key):
    if isinstance(key, str):
        entry = gallery.load_entry(key)
        return entry.structure, entry
    return seeded_structure(*key)[0], None


def _evaluators(s, entry):
    """(name, f(geom)) for every evaluator that applies to ``s``."""
    out = []
    for eq in el.applicable(s):
        run = el.EQUATIONS[eq].run
        out += [(eq, lambda g, run=run: run(g).norm),
                (f"{eq}/residual", lambda g, run=run: run(g).residual)]
    out += [(f"s_star_{side}", lambda g, side=side: el.s_star(g, side))
            for side in ("perp", "tan")]
    if s.n == 1:
        out += [(f"geodesic/{k}", lambda g, k=k: el.el_geodesic_riemannian_flow(
            g, guard_tol=math.inf)[k].norm) for k in ("E-1geod-Riem", "geodriemflowiii")]
    if entry is not None:
        out += [(exp.quantity, lambda g, q=exp.quantity: gallery.evaluate_quantity(entry, g, q))
                for exp in entry.expected]
    return out


def _outcome(f, geom):
    try:
        return np.asarray(f(geom), float)
    except MixedCurvError as exc:
        return type(exc), str(exc)


def _assert_per_node(name, got, want):
    """``got`` on the node bundle against the per-point outcomes ``want``."""
    if isinstance(want[0], tuple):
        assert got == want[0], name
        return
    assert not isinstance(got, tuple), (name, got)
    assert got.shape == (len(want),) + want[0].shape, name
    for k, w in enumerate(want):
        assert np.all(np.abs(got[k] - w) <= 1e-12 * np.maximum(1.0, np.abs(w))), (name, k)


@pytest.mark.parametrize("key", gallery.list_entries() + SEEDED)
def test_node_bundle_gives_the_per_point_value_at_each_node(key):
    s, entry = _structure(key)
    pts = np.array(s.interior_points(NODES, 9))
    big = PointGeometry(s, pts)
    ones = [PointGeometry(s, pt) for pt in pts]
    evaluators = _evaluators(s, entry)
    assert len(evaluators) >= 4
    for name, f in evaluators:
        _assert_per_node(name, _outcome(f, big), [_outcome(f, one) for one in ones])


@pytest.mark.parametrize("name", gallery.list_entries())
def test_H_norm_is_one_value_per_node(name):
    # the maximum over every node of the bundle is not a per-node value
    entry = gallery.load_entry(name)
    pts = np.array(entry.structure.interior_points(NODES, 4))
    H_norm = gallery.QUANTITIES["H_norm"]
    _assert_per_node("H_norm", np.asarray(H_norm(entry, PointGeometry(entry.structure, pts))),
                     [np.asarray(H_norm(entry, PointGeometry(entry.structure, pt)))
                      for pt in pts])


def test_a_failing_node_fails_every_runner_as_at_that_node():
    s = load_structure(NULL_DISTRIBUTION)
    pts = [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.1, 0.0)]
    big = PointGeometry(s, np.array(pts))
    for name, f in _evaluators(s, None):
        want = _outcome(f, PointGeometry(s, pts[1]))
        assert isinstance(want, tuple) and _outcome(f, big) == want, name


def test_the_geodesic_guard_names_the_values_of_the_first_failing_node():
    s = gallery.load_entry("r3_contact").structure
    pts = s.interior_points(3, 2)
    with pytest.raises(SpecializationError) as one:
        el.el_geodesic_riemannian_flow(PointGeometry(s, pts[0]))
    with pytest.raises(SpecializationError) as big:
        el.el_geodesic_riemannian_flow(PointGeometry(s, np.array(pts)))
    assert str(big.value) == str(one.value)


@pytest.mark.parametrize("name, which", [
    ("s3_hopf", "flow"), ("nil4_flow", "flow"), ("r3_contact", "contact-T"),
    ("codim1_coth_tanh", "codim1"), ("codim1_tau_riccati", "codim1")])
def test_volume_preserving_rows_match_one_point_runs(name, which):
    s = gallery.load_entry(name).structure
    pts = s.interior_points(NODES, 39)
    rep = el_volume_preserving(s, pts, which)
    ones = [el_volume_preserving(s, pt, which) for pt in pts]
    assert len(rep["rows"]) == len(pts)
    for got, one in zip(rep["rows"], ones):
        assert got.keys() == one["rows"][0].keys()
        for k, v in one["rows"][0].items():
            assert np.allclose(got[k], v, rtol=1e-12, atol=1e-12), k
    assert rep["max_gap"] == pytest.approx(max(one["max_gap"] for one in ones),
                                           rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["r3_contact", "lorentz_product", "s7_three_sasakian"])
@pytest.mark.parametrize("klass", ["perp", "tan", "general"])
def test_classify_reads_the_points_as_one_bundle(name, klass):
    s = gallery.load_entry(name).structure
    box = tuple((0.5 * lo, 0.5 * hi) for lo, hi in s.domain)
    v = va.random_variation(s, klass, seed=3, box=box)
    pts = s.interior_points(6, 2)
    inside = [all(lo < x < hi for x, (lo, hi) in zip(pt, box)) for pt in pts]
    assert any(inside) and not all(inside)
    worst = classify(v, pts)
    each = [classify(v, [pt]) for pt in pts]
    for block, value in worst.items():
        assert value == pytest.approx(max(w[block] for w in each), rel=1e-12, abs=1e-15)
