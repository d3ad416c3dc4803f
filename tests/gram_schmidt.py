"""The reference Gram-Schmidt passes of ``orthonormal_frame``.

``structure._float_pass`` picks a frame's pivots, signs and values on
trailing axes, and ``structure.orthonormal_frame`` takes the frame's jets
from that frame and one triangular correction.  Two passes stay here as the
oracles of the tests that check them: the float pass member by member in
pure Python (``float_pass_loop``, batched by ``loop_pass``), and the jet
sweep, which orthonormalizes the same candidate rows step by step on array
jets, each batch member with its own rows and signs.
"""

import math

import numpy as np

from mixedcurv.errors import DegenerateDistributionError, member_point
from mixedcurv.jets import broadcast_to, concatenate, dense, einsum, jsqrt, values
from mixedcurv.structure import DEGENERACY_TOL


def _inner(gmat, v, w):
    total = 0.0
    for i, vi in enumerate(v):
        row = gmat[i]
        for j, wj in enumerate(w):
            total = total + vi * row[j] * wj
    return total


def _null_vector(gabs, v, q, tol):
    """g(v, v) = q is negligible against sum |g_ij| |v_i| |v_j|, the size it
    would have without cancellation (``gabs`` holds the |g_ij|); a zero
    vector is null."""
    a = np.abs(np.asarray(v, dtype=float))
    return abs(q) <= tol * np.einsum("m,mn,n->", a, gabs, a)


def float_pass_loop(g0, span0, dim, tol, point):
    """The pivoted Gram-Schmidt pass over floats at one point, on nested
    lists: (frame rows, signs, pivots of the complement) as lists."""
    gabs = np.abs(np.array(g0))
    frame0, signs0 = [], []
    for v in span0:
        for e, s in zip(frame0, signs0):
            c = _inner(g0, v, e)
            v = [v[i] - s * c * e[i] for i in range(dim)]
        q = _inner(g0, v, v)
        if _null_vector(gabs, v, q, tol):
            raise DegenerateDistributionError(
                "distribution vector is null or dependent", point=point)
        s = 1.0 if q > 0.0 else -1.0
        frame0.append([x / math.sqrt(s * q) for x in v])
        signs0.append(s)
    pivots = []
    # each candidate with the number of frame vectors projected off it so far
    candidates = {mu: ([1.0 if i == mu else 0.0 for i in range(dim)], 0)
                  for mu in range(dim)}
    while len(frame0) < dim:
        best, best_v, best_q, size = None, None, 0.0, -1.0
        for mu, (v, done) in sorted(candidates.items()):
            for e, s in zip(frame0[done:], signs0[done:]):
                c = _inner(g0, v, e)
                v = [v[i] - s * c * e[i] for i in range(dim)]
            candidates[mu] = (v, len(frame0))
            q = _inner(g0, v, v)
            # one reduced to rounding noise of |g(e_mu, e_mu)| is in the frame's span
            if abs(q) > size and abs(q) > tol * abs(g0[mu][mu]):
                best, best_v, best_q, size = mu, v, q, abs(q)
        if best is None or _null_vector(gabs, best_v, best_q, tol):
            raise DegenerateDistributionError(
                "no non-null candidate for the orthogonal complement", point=point)
        del candidates[best]
        pivots.append(best)
        q = best_q
        s = 1.0 if q > 0.0 else -1.0
        frame0.append([x / math.sqrt(s * q) for x in best_v])
        signs0.append(s)
    return frame0, signs0, pivots


def loop_pass(g0, span0, tol, point):
    """``float_pass_loop`` over every member of float arrays with leading
    batch axes, in batch order: (frame rows, signs, pivots) as arrays, in
    the form of ``structure._float_pass``; the first failing member raises."""
    n, dim = span0.shape[-2:]
    batch = np.broadcast_shapes(g0.shape[:-2], span0.shape[:-2])
    g0 = np.broadcast_to(g0, batch + (dim, dim))
    span0 = np.broadcast_to(span0, batch + (n, dim))
    passes = [float_pass_loop(g0[b].tolist(), span0[b].tolist(), dim, tol,
                              member_point(point, b))
              for b in np.ndindex(batch)]
    return tuple(np.array([p[k] for p in passes], dtype=dtype).reshape(batch + shape)
                 for k, (dtype, shape) in enumerate([(float, (dim, dim)), (float, (dim,)),
                                                     (np.intp, (dim - n,))]))


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
    _, signs, pivots = loop_pass(values(gmat), values(span_vectors), tol, point)
    batch, n = signs.shape[:-1], dim - pivots.shape[-1]
    W = concatenate((broadcast_to(dense(span_vectors, dim), batch + (n, dim)),
                     dense(np.eye(dim)[pivots], dim)), axis=len(batch))
    frame, signs = gs_pass(dense(gmat, dim), W, n, dim, tol, point)
    return frame, signs, pivots
