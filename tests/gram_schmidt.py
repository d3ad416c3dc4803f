"""The jet Gram-Schmidt sweep: the reference of ``orthonormal_frame``.

``structure.orthonormal_frame`` takes a frame's jets from the float pass's
frame and one triangular correction.  This sweep orthonormalizes the same
candidate rows step by step on array jets, each batch member with its own
rows and signs, and stays here as the oracle of the tests that check the
closed form.
"""

import numpy as np

from mixedcurv.errors import DegenerateDistributionError, member_point
from mixedcurv.jets import broadcast_to, concatenate, dense, einsum, jsqrt, values
from mixedcurv.structure import DEGENERACY_TOL, _float_pass


def _null(gabs, v, q, tol):
    """g(v, v) = q is negligible against sum |g_ij| |v_i| |v_j|, member by
    member over leading batch axes."""
    a = np.abs(np.asarray(v, dtype=float))
    return np.abs(values(q)) <= tol * np.einsum("...m,...mn,...n->...", a, gabs, a)


def gs_pass(gmat, W, n_span, dim, tol, point):
    """Indefinite modified Gram-Schmidt on the rows of the jet field ``W``
    (span vectors first), right-looking: each new frame vector is projected
    out of all later rows at once, so every row takes its projections in the
    order of the row-by-row sweep.  Leading batch axes of ``gmat`` and ``W``
    are members, each with its own rows and signs.  Returns (frame rows as
    one jet field, signs of the batch shape + (dim,))."""
    frame, signs = [], []
    gabs = np.abs(values(gmat))
    for k in range(dim):
        v, W = W[..., 0, :], W[..., 1:, :]
        gv = einsum("...mn,...n->...m", gmat, v)
        q = einsum("...m,...m->...", v, gv)
        null = _null(gabs, values(v), q, tol)
        if np.any(null):
            raise DegenerateDistributionError(
                "distribution vector is null or dependent" if k < n_span else
                "no non-null candidate for the orthogonal complement",
                point=member_point(point, np.argwhere(null)[0]))
        s = np.where(values(q) > 0.0, 1.0, -1.0)
        inv = (1.0 / jsqrt(s * q))[..., None]
        e = v * inv
        frame.append(e[..., None, :])
        signs.append(s)
        if k + 1 < dim:
            c = einsum("...rm,...m->...r", W, gv * inv)    # g(e, w) for every later row w
            W = W - einsum("...r,...m->...rm", s[..., None] * c, e)
    return concatenate(frame, axis=np.ndim(s)), np.stack(signs, axis=-1)


def reference_frame(gmat, span_vectors, dim, tol=DEGENERACY_TOL, point=None):
    """(frame rows, signs, pivots) of the sweep over the candidate rows that
    the float pass of each member picks: the span, then its pivoted unit
    rows.  ``gmat`` and ``span_vectors`` are fields (float arrays or array
    jets) whose leading batch axes broadcast."""
    g0, span0 = values(gmat), values(span_vectors)
    n = span0.shape[-2]
    batch = np.broadcast_shapes(g0.shape[:-2], span0.shape[:-2])
    g0 = np.broadcast_to(g0, batch + (dim, dim))
    span0 = np.broadcast_to(span0, batch + (n, dim))
    pivots = np.reshape(
        [_float_pass(g0[b].tolist(), span0[b].tolist(), dim, tol, member_point(point, b))[2]
         for b in np.ndindex(batch)], batch + (dim - n,))
    W = concatenate((broadcast_to(dense(span_vectors, dim), batch + (n, dim)),
                     dense(np.eye(dim)[pivots], dim)), axis=len(batch))
    frame, signs = gs_pass(dense(gmat, dim), W, n, dim, tol, point)
    return frame, signs, pivots
