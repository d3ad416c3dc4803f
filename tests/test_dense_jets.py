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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixedcurv import gallery
from mixedcurv.errors import InvalidArgumentError, SingularEvaluationError
from mixedcurv.geometry import PointGeometry, jet_matrix_inverse
from mixedcurv.jets import (ArrayJet, Jet, dense, dshift, elementary, gradients, jlog,
                            jpow, jsqrt, order1, seed, values)

from einsum_matmul import einsum_matmul, magnitude
from scalar_inverse import assert_close_to_loop, scalar_matrix_inverse
from test_random_structures import generated_structures, seeded_structure


def _objects(A):
    """The object array of scalar Jets with the entries of the field A."""
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(A.shape):
        out[idx] = Jet(float(A.v[idx]), A.g[(slice(None),) + idx].tolist(),
                       None if A.h is None else A.h[(slice(None),) * 2 + idx].tolist())
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
        pairs.append((gradients(dshift(got), d), gradients(dshift(dense(want, d)), d)))
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
        h = np.moveaxis(h + np.swapaxes(h, -1, -2), (-2, -1), (0, 1))
    return ArrayJet(v, np.moveaxis(g, -1, 0), h)


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
    _same(jpow(2.0, A), np.frompyfunc(lambda x: jpow(2.0, x), 1, 1)(Ao), exact=False)


def _matmul_cases(draw):
    """(name, a, b) for every form of ``a @ b`` the field algebra uses:
    stacks, matrices, vectors and float matrices on either side, and a
    broadcast stack."""
    d = draw(st.integers(1, 3))
    oa, ob = draw(st.sampled_from([(1, 1), (2, 2), (2, 1)]))
    m, k, n, r = (draw(st.integers(1, 3)) for _ in range(4))
    A3 = draw(fields((m, k, n), d, oa))
    M = draw(fields((n, r), d, ob))
    V = draw(fields((n,), d, ob))
    S3 = draw(fields((m, n, r), d, ob))           # a stack of m matrices
    K = draw(arrays(np.float64, (n, r), elements=_coef))
    A2 = A3[0]
    return [("3@2", A3, M), ("2@2", A2, M), ("2@1", A2, V), ("1@2", V, M), ("1@1", V, V),
            ("2@const", A2, K), ("const@2", K.T, A2.mT), ("3@3", A3, S3), ("2@3", A2, S3),
            ("1@3", V, S3), ("3@3 broadcast", A3, S3[:1])]


def _contract_cases(draw):
    """(name, dense result, object result) for every contraction form."""
    cases = _matmul_cases(draw)
    (_, A3, _), (_, _, V), (_, _, S3) = cases[0], cases[2], cases[7]
    n = V.shape[0]
    A3o, Vo, S3o = _objects(A3), _objects(V), _objects(S3)
    return [(name, a @ b, np.asarray(_objects_of(a) @ _objects_of(b), dtype=object))
            for name, a, b in cases] + [
        ("mT", S3.mT, np.swapaxes(S3o, -1, -2)),
        ("transpose", A3.transpose(2, 0, 1), A3o.transpose(2, 0, 1)),
        ("slice", A3[:, 1:, ::-1], A3o[:, 1:, ::-1]),
        ("index", A3[..., 0], A3o[..., 0]), ("newaxis", V[:, None], Vo[:, None]),
        ("fancy", A3[[0, 0], :, [n - 1, 0]], A3o[[0, 0], :, [n - 1, 0]]),
        ("fancy adjacent", A3[:, [0, 0], [n - 1, 0]], A3o[:, [0, 0], [n - 1, 0]]),
        ("diagonal", A3.diagonal(), np.diagonal(A3o)),
        ("diagonal 02", A3.diagonal(0, 0, 2), np.diagonal(A3o, 0, 0, 2)),
    ]


def _objects_of(x):
    return _objects(x) if isinstance(x, ArrayJet) else x


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_matmul_matches_the_einsum_product_rule(data):
    # each part of every product within 4 ulps of the size of the terms it
    # sums: the matmul terms add the same products as the einsum ones, in
    # an order of numpy's choosing
    for name, a, b in _matmul_cases(data.draw):
        got = a @ b
        size = einsum_matmul(magnitude(a), magnitude(b))
        for x, y, z in zip((got.v, got.g, got.h), einsum_matmul(a, b), size):
            assert (x is None) == (y is None), name
            if x is not None:
                assert x.shape == y.shape, name
                assert np.all(np.abs(x - y) <= 4 * np.finfo(float).eps * z), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_fields_of_different_rank_broadcast_like_entrywise_jets(data):
    # a batch of N n x n matrices, and its N corner entries, against one
    # matrix, one vector and one scalar, with N = d or d^2 and n = 1, d or
    # 3.  The lower field's derivative arrays take length-1 axes after their
    # derivative axes; without them numpy would align a derivative axis with
    # a field axis, and where the lengths agree (N or n equal to d) it would
    # broadcast them with no error
    d = data.draw(st.integers(1, 3))
    N, n = data.draw(st.sampled_from([d, d * d])), data.draw(st.sampled_from([1, d, 3]))
    oa, ob = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 1), (1, 2)]))
    Bt = data.draw(fields((N, n, n), d, oa, vals=_away))
    M = data.draw(fields((n, n), d, ob, vals=_away))
    V = data.draw(fields((n,), d, ob, vals=_away))
    c = data.draw(fields((), d, ob, vals=_away))
    Bo, Mo, Vo, co = (_objects(x) for x in (Bt, M, V, c))
    pairs = [(M, Mo, Bt, Bo), (V, Vo, Bt, Bo), (c, co, Bt, Bo), (c, co, Bt[:, 0, 0], Bo[:, 0, 0]),
             (M, Mo, Bt[:, :1, :1], Bo[:, :1, :1])]
    for x, xo, y, yo in pairs:
        for f in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                  lambda a, b: a / b):
            _same(f(x, y), f(xo, yo), exact=True)
            _same(f(y, x), f(yo, xo), exact=True)
    for name, a, b in (("stack@matrix", Bt, M), ("matrix@stack", M, Bt),
                       ("vector@stack", V, Bt), ("stack@vector", Bt, V),
                       ("stack@float", Bt, values(M)), ("float@stack", values(M), Bt)):
        try:
            _same(a @ b, np.asarray(_objects_of(a) @ _objects_of(b), dtype=object),
                  exact=False)
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
    # dshift(A)[m][idx] is the order-1 jet (g[m], h[m]) of entry idx
    D = dshift(A)
    assert D.shape == (d,) + shape and D.h is None
    H = np.array([x.h for x in Ao.flat], dtype=float).reshape(shape + (d, d))
    assert np.array_equal(values(D), gradients(Ao, d))
    assert np.array_equal(gradients(D, d), np.moveaxis(H, (-1, -2), (0, 1)))
    O = order1(A)
    assert O.h is None and np.array_equal(O.g, A.g)
    with pytest.raises(SingularEvaluationError):
        dshift(O)
    # dense() of the object array gives the field back, bit for bit
    R = dense(Ao, d)
    assert all(np.array_equal(x, y) for x, y in zip((R.v, R.g, R.h), (A.v, A.g, A.h)))
    assert dense(_objects(O), d).h is None


def test_mixed_kinds_are_refused():
    A = ArrayJet(np.ones(2), np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        A + ArrayJet(np.ones(3), np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        A * ArrayJet(np.ones(2), np.zeros((3, 2)))
    with pytest.raises(InvalidArgumentError):
        A + Jet(1.0, (0.0, 0.0))
    with pytest.raises(TypeError):
        A * np.array([Jet(1.0, (0.0, 0.0))], dtype=object)
    with pytest.raises(InvalidArgumentError):
        A @ ArrayJet(np.ones(()), np.zeros((2,)))
    with pytest.raises(InvalidArgumentError):
        A @ 2.0
    with pytest.raises(InvalidArgumentError):
        2.0 @ A


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


@st.composite
def inverse_cases(draw):
    """(A, N): one d x d jet matrix (N = 0) or a batch of N matrices (N
    nodes).  Three draws in four are batches of row-permuted diagonally
    dominant matrices, each with a permutation of its own, so neighbouring
    matrices of a batch pivot on different rows; the rest have integer
    entries in [-2, 2], with many zeros and ties, and some are singular."""
    order = draw(st.sampled_from([1, 2]))
    if draw(st.integers(0, 3)) == 0:
        d, N = draw(st.integers(1, 4)), draw(st.sampled_from([0, 1, 3, 5]))
        shape = (N, d, d) if N else (d, d)
        return draw(fields(shape, 2, order, vals=st.integers(-2, 2).map(float))), N
    d, N = draw(st.integers(2, 4)), draw(st.sampled_from([3, 5]))
    A = draw(fields((N, d, d), 2, order))
    # matrix k takes the rows of a drawn permutation rolled by k
    perm = draw(st.permutations(range(d)))
    rows = (np.arange(N)[:, None], np.array([np.roll(perm, k) for k in range(N)]))
    return (A + 5.0 * d * np.eye(d))[rows], N


def _case(v, order):
    """An explicit inverse case: the values ``v`` with fixed derivatives."""
    v = np.array(v, dtype=float)
    g = np.moveaxis((np.arange(v.size * 2).reshape(v.shape + (2,)) % 3) - 1.0, -1, 0)
    h = None if order == 1 else np.broadcast_to(
        np.array([[0.5, -1.0], [-1.0, 2.0]]).reshape((2, 2) + (1,) * v.ndim), (2, 2) + v.shape)
    return ArrayJet(v, g, h), (v.ndim == 3) * len(v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(inverse_cases())
# singular matrices: alone, in a batch of one, and among regular ones
@example(_case([[1.0, 2.0], [2.0, 4.0]], 2))
@example(_case([[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]], 1))
@example(_case([[[0.0, 2.0], [3.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]],
                [[4.0, 1.0], [1.0, 3.0]]], 1))
@example(_case([[[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]],
                [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]],
                [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]],
                [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]], 2))
# row 2 = row 0 + row 1: the last pivot's input entry is 0, and elimination
# leaves a rounding residue of about 1e-17 there, singular against its terms
@example(_case([[1.0, 0.1, 1.0], [0.2, 0.3, -1.0], [1.2, 0.4, 0.0]], 2))
def test_dense_inverse_pivots_and_fails_like_the_scalar_loop(case):
    # In a batch of N matrices (N nodes) each matrix picks its own pivot
    # rows; one singular matrix fails the batch, and the regular ones then
    # pass as a batch of their own.  The values are the loop's bits; the
    # gradients come in closed form and agree to rounding
    A, N = case
    d = A.shape[-1]
    want = []
    for M in (A if N else [A]):
        try:
            want.append(scalar_matrix_inverse(_objects(M).tolist(), d))
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
        assert_close_to_loop(gradients(node, 2), gradients(w, 2))


def test_widely_scaled_rows_invert():
    # condition 1 after symmetric diagonal scaling.  Row 0's largest entry
    # is its 8.3e68, so its pivot 15 is 1.8e-68 of its row: judged against
    # the row it failed as singular under any pivot order.  Judged against
    # its own size (no elimination has touched it yet) it stands
    A = np.array([[15.0, 8.3e68], [8.3e68, 7.7e260]])
    a, b, c = A[0, 0], A[0, 1], A[1, 1]
    exact = np.array([[1 / a, -b / (a * c)], [-b / (a * c), 1 / c]])
    V = jet_matrix_inverse(A, 2)
    assert V.tolist() == scalar_matrix_inverse(A.tolist(), 2)
    assert np.all(np.abs(V - exact) <= 1e-15 * np.abs(exact))
    # as a jet: A(x) = A + x diag(1, 7.7e260), d_x A^-1 = -A^-1 diag(1, 7.7e260) A^-1
    (x,) = seed((0.0,), 2)
    J = jet_matrix_inverse(dense([[a + x, b], [b, c * (1.0 + x)]], 1), 2)
    dV = -exact @ np.diag([1.0, c]) @ exact
    assert np.array_equal(J.v, V)
    assert np.all(np.abs(J.g[0] - dV) <= 1e-14 * np.abs(dV))


@st.composite
def order2_inverse_cases(draw):
    """(A, N, s): one d x d order-2 jet matrix (N = 0) or a batch of N, with
    d in 1..7, and row scales s.  Each matrix is diagonally dominant with
    its rows permuted by a permutation of its own, so the matrices of a
    batch pivot on different rows (as in ``inverse_cases``); s scales one
    drawn row by a factor of up to exp(598)."""
    d, N, n = draw(st.integers(1, 7)), draw(st.sampled_from([0, 1, 3, 5])), draw(st.integers(1, 3))
    A = draw(fields((max(N, 1), d, d), n, 2))
    # matrix k takes the rows of a drawn permutation rolled by k
    perm = draw(st.permutations(range(d)))
    rows = (np.arange(max(N, 1))[:, None], np.array([np.roll(perm, k) for k in range(max(N, 1))]))
    A = (A + 5.0 * d * np.eye(d))[rows]
    s = np.ones(d)
    s[draw(st.integers(0, d - 1))] = draw(st.sampled_from([1.0, 1e13, 1e15, np.exp(598)]))
    return (A if N else A[0]), N, s


def _largest(A, axis):
    """The array jet whose every entry is the largest magnitude of A's
    along the matrix axis ``axis`` (-1 along a row, -2 down a column), in
    value, gradient and Hessian alike."""
    def top(x, k):
        return np.broadcast_to(np.max(np.abs(x), axis=axis, keepdims=True), x.shape)
    return ArrayJet(top(A.v, 0), top(A.g, 1), top(A.h, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(order2_inverse_cases())
def test_order2_inverse_matches_the_scalar_loop_and_inverts(case):
    # the inverse of S A, S = diag(s): its values are the scalar loop's bits,
    # and its gradient and Hessian, in closed form, are those of the loop's
    # A^-1 S^-1 (the loop squares each pivot, so beyond 1e154 its own
    # derivatives underflow); and (S A) (S A)^-1 = I as a jet, each entry of
    # its value, gradient and Hessian within 1e-13 max(1, b), b the sum of
    # the largest terms of its row of S A and its column of the inverse.
    # Scaled pivoting is invariant under row scaling: no scaled row fails
    # the singular test or grows the elimination
    A, N, s = case
    d, n = A.shape[-1], A.nvars
    SA = s[:, None] * A
    loops = [scalar_matrix_inverse(_objects(SM).tolist(), d) for SM in (SA if N else [SA])]
    got = jet_matrix_inverse(SA, d)
    assert got.shape == A.shape and got.h is not None
    for k, loop in enumerate(loops):
        node, M = (got[k], A[k]) if N else (got, A)
        assert values(node).tolist() == values(loop).tolist()
        want = dense(scalar_matrix_inverse(_objects(M).tolist(), d), n) * (1.0 / s)
        assert_close_to_loop(node.g, want.g)
        assert_close_to_loop(node.h, want.h)
    I, bound = SA @ got, _largest(SA, -1) @ _largest(got, -2)
    for a, b in ((I.v - np.eye(d), bound.v), (I.g, bound.g), (I.h, bound.h)):
        assert np.all(np.abs(a) <= 1e-13 * np.maximum(1.0, b))


def _frame_defect(geom):
    """Largest |value|, |gradient| and |Hessian| entry of g(e_a, e_b) -
    eps_a delta_ab, with the frame and the metric as order-2 jet fields."""
    E, d = geom.framevecsJ, geom.d
    G = E @ geom.gJ @ E.mT - np.diag(geom.eps)
    return max(float(np.max(np.abs(x)))
               for x in (values(G), gradients(G, d), gradients(dshift(G), d)))


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
