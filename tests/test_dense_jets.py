"""Dense jet fields against object arrays of scalar Jets, entry by entry.

A jet tensor field is one ``ArrayJet`` whose value, gradient and Hessian
arrays carry the tensor's shape.  Every operation the field algebra uses is
checked here against the same operation on an object array of scalar
``Jet``s, which stays the reference: ring operations (exactly, by the same
formulas), elementary functions (numpy's values against math's), the
contractions (up to the order of summation), the readers and the domain
errors.  The dense Gram-Schmidt frame is checked to be orthonormal as a jet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixedcurv import gallery
from mixedcurv.errors import InvalidArgumentError, SingularEvaluationError
from mixedcurv.geometry import PointGeometry, jet_matrix_inverse
from mixedcurv.jets import (ArrayJet, Jet, dense, dshift, elementary, gradients, jlog,
                            jsqrt, order1, tensordot, values)

from test_random_structures import generated_structures, seeded_structure


def _objects(A):
    """The object array of scalar Jets with the entries of the field A."""
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(A.shape):
        out[idx] = Jet(float(A.v[idx]), A.g[idx].tolist(),
                       None if A.h is None else A.h[idx].tolist())
    return out


def _same(got, want, exact):
    """The field ``got`` against the object array (or Jet) ``want``."""
    assert isinstance(got, ArrayJet)
    want = np.asarray(want, dtype=object)
    assert got.shape == want.shape
    d = got.nvars
    pairs = [(values(got), values(want)), (gradients(got, d), gradients(want, d))]
    if want.size:
        assert (got.h is None) == any(x.h is None for x in want.flat)
    if got.h is not None and want.size:
        pairs.append((gradients(dshift(got, d), d), gradients(dshift(want, d), d)))
    for a, b in pairs:
        assert a.shape == b.shape
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


_coef = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_away = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1))


@st.composite
def fields(draw, shape, d, order, vals=_coef):
    """A jet field of the given shape in d variables, order 1 or 2."""
    v = draw(arrays(np.float64, shape, elements=vals))
    g = draw(arrays(np.float64, shape + (d,), elements=_coef))
    h = None
    if order == 2:
        h = draw(arrays(np.float64, shape + (d, d), elements=_coef))
        h = h + np.swapaxes(h, -1, -2)
    return ArrayJet(v, g, h)


_shapes = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple)


@st.composite
def broadcast_pair(draw):
    """Two shapes that broadcast: the second a suffix of the first with
    some axes of length 1."""
    sa = draw(_shapes)
    k = draw(st.integers(0, len(sa)))
    sb = tuple(1 if draw(st.booleans()) else n for n in sa[len(sa) - k:])
    return (sa, sb) if draw(st.booleans()) else (sb, sa)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_ring_operations_broadcast_like_entrywise_jets(data):
    sa, sb = data.draw(broadcast_pair())
    d = data.draw(st.integers(1, 3))
    oa, ob = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 1)]))
    A = data.draw(fields(sa, d, oa))
    B = data.draw(fields(sb, d, ob, vals=_away))
    C = data.draw(arrays(np.float64, sb, elements=_away))
    Ao, Bo = _objects(A), _objects(B)
    for f in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
              lambda a, b: a / b):
        _same(f(A, B), f(Ao, Bo), exact=True)
        _same(f(A, C), f(Ao, C), exact=True)
        _same(f(A, 1.5), f(Ao, 1.5), exact=True)
    for f in (lambda a: 2.0 - a, lambda a: -a, lambda a: a ** 3, lambda a: a ** 0):
        _same(f(A), np.frompyfunc(f, 1, 1)(Ao), exact=True)
    for f in (lambda b: 2.5 / b, lambda b: b ** -2):
        _same(f(B), np.frompyfunc(f, 1, 1)(Bo), exact=True)
    _same(C - A, C - Ao, exact=True)
    _same(C / B, C / Bo, exact=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_elementary_functions_act_entrywise(data):
    shape = data.draw(_shapes)
    d = data.draw(st.integers(1, 3))
    order = data.draw(st.sampled_from([1, 2]))
    A = data.draw(fields(shape, d, order, vals=st.floats(0.1, 2.0)))
    Ao = _objects(A)
    for fn in ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "atan"):
        _same(elementary(A, fn), np.frompyfunc(lambda x: elementary(x, fn), 1, 1)(Ao),
              exact=False)
    _same(A ** 1.5, np.frompyfunc(lambda x: x ** 1.5, 1, 1)(Ao), exact=False)
    _same(2.0 ** A, np.frompyfunc(lambda x: 2.0 ** x, 1, 1)(Ao), exact=False)


def _contract_cases(draw):
    """(name, dense result, object result) for every contraction form."""
    d = draw(st.integers(1, 3))
    oa, ob = draw(st.sampled_from([(1, 1), (2, 2), (2, 1)]))
    m, k, n, r = (draw(st.integers(1, 3)) for _ in range(4))
    A3 = draw(fields((m, k, n), d, oa))
    M = draw(fields((n, r), d, ob))
    V = draw(fields((n,), d, ob))
    S3 = draw(fields((m, n, r), d, ob))           # a stack of m matrices
    K = draw(arrays(np.float64, (n, r), elements=_coef))
    A3o, Mo, Vo, S3o = _objects(A3), _objects(M), _objects(V), _objects(S3)
    A2, A2o = A3[0], A3o[0]
    return [
        ("3@2", A3 @ M, A3o @ Mo), ("2@2", A2 @ M, A2o @ Mo), ("2@1", A2 @ V, A2o @ Vo),
        ("1@2", V @ M, Vo @ Mo), ("1@1", V @ V, np.asarray(Vo @ Vo, dtype=object)),
        ("2@const", A2 @ K, A2o @ K), ("const@2", K.T @ A2.T, K.T @ A2o.T),
        ("3@3", A3 @ S3, A3o @ S3o), ("2@3", A2 @ S3, A2o @ S3o), ("1@3", V @ S3, Vo @ S3o),
        ("3@3 broadcast", A3 @ S3[:1], A3o @ S3o[:1]), ("mT", S3.mT, np.swapaxes(S3o, -1, -2)),
        ("tensordot 0", tensordot(A3, M, axes=(2, 0)), np.tensordot(A3o, Mo, axes=(2, 0))),
        ("tensordot 1", tensordot(M, A3, axes=([0, 1], [2, 0])) if r == m else None,
         np.tensordot(Mo, A3o, axes=([0, 1], [2, 0])) if r == m else None),
        ("tensordot 2", tensordot(A3, A3, axes=2) if m == k == n else None,
         np.tensordot(A3o, A3o, axes=2) if m == k == n else None),
        ("tensordot const", tensordot(K, A3, axes=(0, 2)), np.tensordot(K, A3o, axes=(0, 2))),
        ("transpose", A3.transpose(2, 0, 1), A3o.transpose(2, 0, 1)),
        ("T", A3.T, A3o.T), ("slice", A3[:, 1:, ::-1], A3o[:, 1:, ::-1]),
        ("index", A3[..., 0], A3o[..., 0]), ("newaxis", V[:, None], Vo[:, None]),
        ("fancy", A3[[0, 0], :, [n - 1, 0]], A3o[[0, 0], :, [n - 1, 0]]),
        ("diagonal", A3.diagonal(), np.diagonal(A3o)),
        ("diagonal 02", A3.diagonal(0, 0, 2), np.diagonal(A3o, 0, 0, 2)),
        ("sum", A3.sum(axis=1), A3o.sum(axis=1)),
        ("sum all", A3.sum(), np.asarray(A3o.sum(), dtype=object)),
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_contractions_and_shape_operations_match_object_arrays(data):
    for name, got, want in _contract_cases(data.draw):
        if got is None:
            continue
        try:
            _same(got, want, exact=False)
        except AssertionError as exc:
            raise AssertionError(name) from exc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_readers_match_object_arrays(data):
    shape = data.draw(_shapes)
    d = data.draw(st.integers(1, 3))
    A = data.draw(fields(shape, d, 2))
    Ao = _objects(A)
    assert np.array_equal(values(A), values(Ao))
    assert np.array_equal(gradients(A, d), gradients(Ao, d))
    assert gradients(A, d).flags["C_CONTIGUOUS"]
    D, Do = dshift(A, d), dshift(Ao, d)
    assert D.shape == Do.shape == (d,) + shape and D.h is None
    assert np.array_equal(values(D), values(Do))
    assert np.array_equal(gradients(D, d), gradients(Do, d))
    O = order1(A)
    assert O.h is None and np.array_equal(O.g, A.g)
    with pytest.raises(SingularEvaluationError):
        dshift(O, d)
    # dense() of the object array gives the field back, bit for bit
    R = dense(Ao, d)
    assert all(np.array_equal(x, y) for x, y in zip((R.v, R.g, R.h), (A.v, A.g, A.h)))
    assert dense(order1(Ao), d).h is None


def test_mixed_kinds_are_refused():
    A = ArrayJet(np.ones(2), np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        A + ArrayJet(np.ones(3), np.zeros((3, 2)))
    with pytest.raises(InvalidArgumentError):
        A * ArrayJet(np.ones(2), np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        A + Jet(1.0, (0.0, 0.0))
    with pytest.raises(TypeError):
        A * np.array([Jet(1.0, (0.0, 0.0))], dtype=object)
    with pytest.raises(InvalidArgumentError):
        A @ ArrayJet(np.ones(()), np.zeros((2,)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_domain_errors_match_entrywise_jets(data):
    shape = data.draw(_shapes.filter(lambda s: s != ()))
    d = data.draw(st.integers(1, 3))
    vals = st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1))
    A = data.draw(fields(shape, d, 2, vals=vals))
    Ao = _objects(A)
    for f in (jsqrt, jlog, lambda x: 1.0 / x, lambda x: x ** 0.5, lambda x: x ** -1):
        errs = set()
        for x in Ao.flat:
            try:
                f(x)
            except SingularEvaluationError as exc:
                errs.add(type(exc))
        if errs:
            with pytest.raises(SingularEvaluationError):
                f(A)
        else:
            f(A)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_dense_inverse_pivots_and_fails_like_the_scalar_loop(data):
    # integer-valued entries with many zeros and ties need row swaps, and
    # some matrices are singular.  In a batch of N matrices (N nodes) each
    # matrix picks its own pivot rows; one singular matrix fails the batch,
    # and the regular ones then pass as a batch of their own
    d = data.draw(st.integers(1, 4))
    order = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([0, 1, 3, 5]))         # 0: one matrix, no batch
    A = data.draw(fields((N, d, d) if N else (d, d), 2, order,
                         vals=st.integers(-2, 2).map(float)))
    want = []
    for M in (A if N else [A]):
        try:
            want.append(jet_matrix_inverse(_objects(M).tolist(), d))
        except SingularEvaluationError:
            want.append(None)
    regular = [k for k, w in enumerate(want) if w is not None]
    if len(regular) < len(want):
        with pytest.raises(SingularEvaluationError, match="singular metric"):
            jet_matrix_inverse(A, d)
        if not (N and regular):
            return
        A, want = A[np.array(regular)], [want[k] for k in regular]
    got = jet_matrix_inverse(A, d)
    assert got.shape == A.shape
    for k, w in enumerate(want):
        node = got[k] if N else got
        assert values(node).tolist() == values(w).tolist()
        assert gradients(node, 2).tolist() == gradients(w, 2).tolist()


def _frame_defect(geom):
    """Largest |value|, |gradient| and |Hessian| entry of g(e_a, e_b) -
    eps_a delta_ab, with the frame and the metric as order-2 jet fields."""
    E, d = geom.framevecsJ, geom.d
    G = E @ geom.gJ @ E.T - np.diag(geom.eps)
    return max(float(np.max(np.abs(x)))
               for x in (values(G), gradients(G, d), gradients(dshift(G, d), d)))


@pytest.mark.parametrize("name", gallery.list_entries())
def test_dense_frame_is_orthonormal_as_a_jet(name):
    s = gallery.load_entry(name).structure
    for pt in s.interior_points(2, 5):
        assert _frame_defect(PointGeometry(s, pt)) < 1e-12


@pytest.mark.parametrize("seed,d,n,lorentz", [(1, 3, 2, False), (2, 5, 2, True),
                                              (3, 4, 1, False), (4, 6, 3, True)])
def test_dense_frame_is_orthonormal_on_seeded_structures(seed, d, n, lorentz):
    s, pt = seeded_structure(seed, d, n, lorentz)
    assert _frame_defect(PointGeometry(s, pt)) < 1e-12


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(generated_structures())
def test_dense_frame_is_orthonormal_on_generated_structures(data):
    s, pt = data
    assert _frame_defect(PointGeometry(s, pt)) < 1e-12
