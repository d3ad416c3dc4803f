"""The scalar Gauss-Jordan loop: the reference of ``jet_matrix_inverse``.

``geometry.jet_matrix_inverse`` inverts an array jet of shape B + (d, d),
each matrix of the batch with its own pivot rows, by Gauss-Jordan on the
values and the derivatives in closed form.  This loop inverts one matrix
given as nested lists of scalars (floats or scalar ``Jet``s) by the same
rule, entry by entry, with the derivatives in jet arithmetic, and stays
here as the oracle of the tests that check the array form: the values to
the bit, the derivatives to rounding (``assert_close_to_loop``).
"""

import numpy as np

from mixedcurv.errors import SingularEvaluationError
from mixedcurv.jets import Jet, value_of


def _gauss_jordan(M, d, point):
    """(inverse, pivot rows) of the d x d nested list M."""
    A = [[M[i][j] for j in range(d)] for i in range(d)]
    I = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    # the magnitudes of the terms each entry sums; a candidate pivot is
    # compared relative to the largest entry of its own input row, and
    # judged against the size of its terms
    size = [[abs(value_of(x)) for x in row] for row in A]
    scale = [max(row) for row in size]
    pivots = []
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(value_of(A[r][col])) / (scale[r] or 1.0))
        if abs(value_of(A[piv][col])) <= 1e-14 * size[piv][col]:
            raise SingularEvaluationError("singular metric", point=point)
        pivots.append(piv)
        A[col], A[piv] = A[piv], A[col]
        I[col], I[piv] = I[piv], I[col]
        scale[col], scale[piv] = scale[piv], scale[col]
        size[col], size[piv] = size[piv], size[col]
        inv = 1.0 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        I[col] = [x * inv for x in I[col]]
        size[col] = [x * abs(value_of(inv)) for x in size[col]]
        for r in range(d):
            f = A[r][col]
            if r != col and (isinstance(f, Jet) or f != 0.0):
                A[r] = [A[r][j] - f * A[col][j] for j in range(d)]
                I[r] = [I[r][j] - f * I[col][j] for j in range(d)]
                size[r] = [size[r][j] + abs(value_of(f)) * size[col][j] for j in range(d)]
    return I, tuple(pivots)


def scalar_matrix_inverse(M, d, point=None):
    """Gauss-Jordan inverse of nested lists of scalars by the rule of
    ``jet_matrix_inverse``, as nested lists."""
    return _gauss_jordan(M, d, point)[0]


def pivot_rows(M):
    """The pivot row the loop picks at each column of the float matrix M."""
    return _gauss_jordan(M, len(M), None)[1]


def assert_close_to_loop(got, want):
    """Derivatives ``got`` of the closed form against the loop's ``want``,
    within 1e-12 of the largest finite magnitude of ``want`` wherever
    ``want`` is finite: the loop squares its pivots, so its jet arithmetic
    may overflow where the closed form does not, and an entry that
    overflowed judges nothing."""
    ok = np.isfinite(want)
    scale = max(1.0, np.max(np.abs(want[ok]), initial=0.0))
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * scale)
