"""The frame's float pass on trailing axes against the member-by-member loop.

``structure._float_pass`` runs the pivoted Gram-Schmidt pass once over any
batch shape.  Its frame rows, signs and pivots must equal, bit for bit, those
of ``gram_schmidt.float_pass_loop`` run on each member in pure Python: on
every gallery entry at 1, 6 and 64 nodes, on the euclidean chart whose
complement candidates tie exactly, on a batch of metrics at one point, on
generated structures and on drawn metrics whose integer entries make exact
ties and cancellations common.  Where the loop raises, the pass raises the
same class and message for the same member, the first failing one in batch
order, whichever stage fails first in the other members.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import gallery
from mixedcurv.errors import DegenerateDistributionError
from mixedcurv.jets import values
from mixedcurv.structure import (DEGENERACY_TOL, _float_pass, adapted_frame, load_structure,
                                 signature)
from gram_schmidt import loop_pass
from test_batched_bundle import STEPS, _members, _stack, _structure
from test_random_structures import generated_structures

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _at_nodes(s, pts):
    """The metric and span values at each node, stacked on a leading axis."""
    return (np.stack([values(s.metric_at(list(p))) for p in pts]),
            np.stack([values(s.dtilde_at(list(p))) for p in pts]))


def _outcome(fn, g0, span0, point=None):
    """The pass's arrays, or the class and message of what it raises."""
    try:
        return fn(g0, span0, DEGENERACY_TOL, point)
    except DegenerateDistributionError as exc:
        return type(exc), str(exc), exc.point


def _same_as_the_loop(g0, span0, point=None):
    got, want = (_outcome(fn, g0, span0, point) for fn in (_float_pass, loop_pass))
    raised = [isinstance(x[1], str) for x in (got, want)]
    assert raised[0] == raised[1], (got, want)
    if raised[1]:
        assert got == want
        return None
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    return got


@pytest.mark.parametrize("name", gallery.list_entries())
@pytest.mark.parametrize("members", [1, 6, 64])
def test_every_gallery_entry_matches_the_loop_at_its_nodes(name, members):
    s = gallery.load_entry(name).structure
    pts = s.interior_points(members, 11)
    g0, span0 = _at_nodes(s, pts)
    frame, signs, pivots = _same_as_the_loop(g0, span0, tuple(pts))
    assert frame.shape == (members, s.dim, s.dim) and pivots.shape == (members, s.dim - s.n)
    # the same pass at one point, without batch axes
    for k in (0, members - 1):
        _same_as_the_loop(g0[k], span0[k], pts[k])


def test_exact_ties_go_to_the_first_candidate():
    # on the euclidean chart the reduced candidates e1 and e2 tie exactly
    s = gallery.load_entry("euclidean_product").structure
    g0, span0 = _at_nodes(s, s.interior_points(6, 11))
    assert np.all(g0 == np.eye(3))
    frame, signs, pivots = _same_as_the_loop(g0, span0)
    assert pivots.tolist() == [[1, 2]] * 6
    # the same tie between metrics scaled per member
    scaled = g0 * np.arange(1.0, 7.0)[:, None, None]
    assert _same_as_the_loop(scaled, span0)[2].tolist() == [[1, 2]] * 6


@pytest.mark.parametrize("key", ["r3_contact", "lorentz_product", "s7_three_sasakian",
                                 "swap", (3, 5, 2, True)])
def test_a_batch_of_metrics_at_one_point_matches_the_loop(key):
    s, pt = _structure(key)
    steps = STEPS if key != "swap" else [(-1, 0.0), (-1, 0.3), (-1, 1.0), (0, 0.3), (-1, 1.2)]
    g0 = values(_stack(_members(s, pt, steps)))
    span0 = values(s.dtilde_at(list(pt)))             # shared by every member
    _same_as_the_loop(g0, span0, pt)
    _same_as_the_loop(g0.reshape((1, len(steps)) + g0.shape[1:]), span0, pt)


def test_two_batch_axes_and_the_empty_batch():
    s = gallery.load_entry("nil4_flow").structure
    g0, span0 = _at_nodes(s, s.interior_points(6, 3))
    _same_as_the_loop(g0.reshape(2, 3, 4, 4), span0.reshape(2, 3, 1, 4))
    frame, signs, pivots = _same_as_the_loop(g0[:0], span0[:0])
    assert frame.shape == (0, 4, 4) and signs.shape == (0, 4) and pivots.shape == (0, 3)


@PROPERTY
@given(generated_structures(max_dim=6), st.integers(1, 8))
def test_generated_structures_match_the_loop(data, members):
    s, pt = data
    pts = [pt] + s.interior_points(members - 1, 5)
    _same_as_the_loop(*_at_nodes(s, pts), tuple(pts))


@st.composite
def integer_metrics(draw):
    """(metrics, span, nodes): a batch of symmetric metrics with small
    integer entries, often singular or indefinite, and integer span rows."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, d - 1))
    members = draw(st.integers(1, 6))
    entry = st.integers(-2, 2)
    A = np.array(draw(st.lists(entry, min_size=members * d * d, max_size=members * d * d)),
                 dtype=float).reshape(members, d, d)
    span = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d)),
                    dtype=float).reshape(n, d)
    nodes = tuple((float(k),) * d for k in range(members))
    return A + A.mT + np.eye(d), span, nodes


@PROPERTY
@given(integer_metrics())
def test_drawn_metrics_match_the_loop_or_fail_as_it_does(data):
    _same_as_the_loop(*data)


def test_the_first_failing_member_names_its_own_degeneracy():
    # member 1 fails at the complement (g = diag(1, 1, 0): e2 is null), and
    # member 3 at the span (e0 is null under the hyperbolic block); the loop
    # reaches member 1 first, so member 1 and the complement's message win
    good = np.eye(3)
    complement = np.diag([1.0, 1.0, 0.0])
    span_null = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    g0 = np.stack([good, complement, 2.0 * good, span_null, good])
    span0 = np.array([[1.0, 0.0, 0.0]])
    nodes = tuple((0.1 * k, 0.2, 0.3) for k in range(5))
    with pytest.raises(DegenerateDistributionError) as err:
        _float_pass(g0, span0, DEGENERACY_TOL, nodes)
    assert str(err.value) == ("no non-null candidate for the orthogonal complement "
                              "at point (0.1, 0.2, 0.3)")
    assert err.value.point == nodes[1]
    _same_as_the_loop(g0, span0, nodes)
    # without member 1, member 3 fails at the span
    with pytest.raises(DegenerateDistributionError, match="null or dependent") as err:
        _float_pass(g0[2:], span0, DEGENERACY_TOL, nodes[2:])
    assert err.value.point == nodes[3]


def test_a_frame_holds_arrays_at_float_inputs():
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = -1\nmetric 1 1 = 1\n"
                       "metric 2 2 = 1\ndtilde 0 = 1, 0, 0\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    fr = adapted_frame(s, (0.0, 0.0, 0.0))
    assert isinstance(fr.vectors, np.ndarray) and isinstance(fr.signs, np.ndarray)
    assert fr.E.tolist() == [[1.0, 0.0, 0.0]] and fr.eps_tan.tolist() == [-1.0]
    assert fr.Eperp.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert fr.eps_perp.tolist() == [1.0, 1.0]
    base = signature(s, (0.0, 0.0, 0.0))
    assert base == ((-1.0,), (1.0, 1.0)) and type(base[0][0]) is float
