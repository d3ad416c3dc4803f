"""Charts carrying a pseudo-Riemannian metric and a distinguished distribution.

A structure spec is a line-oriented text format::

    name = r3_contact            # optional
    dim = 3
    dtilde_dim = 1
    params = c1: 1.0, c2: 0.25   # optional
    metric 0 0 = (1 + x1^2 + x2^2) / 4
    metric 0 1 = x2 / 4          # upper triangle only; omitted entries are 0
    dtilde 0 = 0, 0, 1           # spanning field, one expression per coordinate
    domain = [-1, 1] x [-1, 1] x [-1, 1]

Comments start with ``#``.  The metric matrix is stored upper-triangular and
mirrored on evaluation, so symmetry is exact by construction.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprlang
from .errors import (DegenerateDistributionError, DomainError,
                     SignatureInstabilityError, SpecFormatError, member_point)
from .jets import (ArrayJet, as_field, broadcast_to, check_finite, concatenate, dense,
                   value_of, values)

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class ProductStructure:
    dim: int
    n: int                      # rank of the distinguished distribution
    metric_upper: dict          # (i, j) -> AST with i <= j
    dtilde: tuple               # n tuples of dim ASTs
    params: dict
    domain: tuple               # dim pairs (lo, hi)
    name: str = ""
    source_text: str = ""

    @property
    def p(self):
        return self.dim - self.n

    @property
    def content_hash(self):
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def metric_at(self, point):
        """The symmetric dim x dim metric as a field at ``point``: a float
        array at a float point, an array jet at seeds (see
        :func:`mixedcurv.jets.as_field`)."""
        env = list(point)
        d = self.dim
        rows = [[0.0] * d for _ in range(d)]
        entries = self._metric_program.run(env, self.params)
        for (i, j), v in zip(self.metric_upper, entries):
            check_finite(v, point=_values(point))
            rows[i][j] = v
            if i != j:
                rows[j][i] = v
        return as_field(rows, env)

    def dtilde_at(self, point):
        """The n spanning fields (rows of dim components) as a field at
        ``point``, as :meth:`metric_at` gives the metric."""
        env = list(point)
        flat = list(self._dtilde_program.run(env, self.params))
        d = self.dim
        return as_field([flat[k:k + d] for k in range(0, len(flat), d)], env)

    @cached_property
    def _metric_program(self):
        return exprlang.Program(self.metric_upper.values())

    @cached_property
    def _dtilde_program(self):
        return exprlang.Program([c for vec in self.dtilde for c in vec])

    def contains(self, point):
        """Whether ``point`` lies in the domain box (to 1e-12): a bool, or
        one per node of an (N, d) node array."""
        P = np.asarray(point, dtype=float)
        if P.shape[-1:] != (self.dim,):
            return np.zeros(P.shape[:-1], dtype=bool) if P.ndim > 1 else False
        lo, hi = np.array(self.domain).T
        return ((lo - 1e-12 <= P) & (P <= hi + 1e-12)).all(axis=-1)

    def require_inside(self, point):
        """Raise unless ``point``, or every node of an (N, d) node array,
        lies in the domain box; the error names the first node that does not."""
        nodes = np.atleast_2d(np.asarray(point, dtype=float))
        inside = self.contains(nodes)
        if not inside.all():
            pt = tuple(nodes[inside.argmin()].tolist())
            if len(pt) != self.dim:
                raise DomainError(f"point {pt} has {len(pt)} coordinates, chart has {self.dim}")
            raise DomainError(f"point {pt} outside domain box {self.domain}")

    def require_box(self, box):
        """Raise unless the box, as (lo, hi) per coordinate, lies inside the
        domain box: the check of every box integral and of ``--box``."""
        intervals = [tuple(iv) for iv in box]
        if len(intervals) != self.dim:
            raise DomainError(f"box needs {self.dim} intervals, got {len(intervals)}")
        if not all(self.contains(corner) for corner in zip(*intervals)):
            raise DomainError(f"box {intervals} leaves the domain box {self.domain}")

    def interior_points(self, count, rng_seed):
        """Deterministic sample of interior points, 15% of each side from the box edges."""
        rng = random.Random(rng_seed)
        pts = []
        for _ in range(count):
            pt = []
            for lo, hi in self.domain:
                w = hi - lo
                pt.append(lo + w * (0.15 + 0.7 * rng.random()))
            pts.append(tuple(pt))
        return pts


def _values(point):
    return [value_of(x) for x in point]


# ----------------------------------------------------------------------
# Spec file format

_METRIC_RE = re.compile(r"^metric\s+(\d+)\s+(\d+)$")
_DTILDE_RE = re.compile(r"^dtilde\s+(\d+)$")
_INTERVAL_RE = re.compile(r"^\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]$")
_SCALAR_KEYS = ("name", "dim", "dtilde_dim", "params", "domain")


def load_structure(text):
    """Parse a structure spec; validates dimensions, names and symmetry."""
    data = {"metric": {}, "dtilde": {}}
    scalars = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFormatError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        m = _METRIC_RE.match(key)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if (i, j) in data["metric"]:
                raise SpecFormatError(f"line {lineno}: duplicate metric entry {i} {j}")
            data["metric"][(i, j)] = value
            continue
        m = _DTILDE_RE.match(key)
        if m:
            k = int(m.group(1))
            if k in data["dtilde"]:
                raise SpecFormatError(f"line {lineno}: duplicate dtilde entry {k}")
            data["dtilde"][k] = value
            continue
        if key not in _SCALAR_KEYS:
            raise SpecFormatError(f"line {lineno}: unknown key {key!r}")
        if key in scalars:
            raise SpecFormatError(f"line {lineno}: duplicate key {key!r}")
        scalars[key] = value

    for req in ("dim", "dtilde_dim", "domain"):
        if req not in scalars:
            raise SpecFormatError(f"missing required key {req!r}")
    try:
        dim = int(scalars["dim"])
        n = int(scalars["dtilde_dim"])
    except ValueError as e:
        raise SpecFormatError(f"dim/dtilde_dim must be integers: {e}")
    if not (1 <= n < dim):
        raise SpecFormatError(f"need 1 <= dtilde_dim < dim, got {n} and {dim}")

    params = {}
    if "params" in scalars:
        for item in scalars["params"].split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise SpecFormatError(f"params entry {item!r} must be 'name: value'")
            pname, _, pval = item.partition(":")
            pname = pname.strip()
            if not pname.isidentifier():
                raise SpecFormatError(f"bad parameter name {pname!r}")
            try:
                params[pname] = float(pval)
            except ValueError:
                raise SpecFormatError(f"bad parameter value for {pname!r}")

    pnames = set(params)
    metric_upper = {}
    for (i, j), expr_text in data["metric"].items():
        if i > j:
            raise SpecFormatError(
                f"metric {i} {j}: declare the upper triangle only (i <= j); "
                "the matrix is mirrored automatically")
        if j >= dim:
            raise SpecFormatError(f"metric {i} {j}: index out of range for dim {dim}")
        metric_upper[(i, j)] = exprlang.parse(expr_text, dim, pnames)
    if not any(i == j for (i, j) in metric_upper):
        raise SpecFormatError("metric has no diagonal entries")

    dtilde = []
    for k in range(n):
        if k not in data["dtilde"]:
            raise SpecFormatError(f"missing dtilde {k}")
        comps = _split_top_level(data["dtilde"][k])
        if len(comps) != dim:
            raise SpecFormatError(
                f"dtilde {k}: expected {dim} components, got {len(comps)}")
        dtilde.append(tuple(exprlang.parse(c, dim, pnames) for c in comps))
    extra = set(data["dtilde"]) - set(range(n))
    if extra:
        raise SpecFormatError(f"dtilde indices out of range: {sorted(extra)}")

    intervals = parse_intervals(scalars["domain"], "domain", SpecFormatError)
    if len(intervals) != dim:
        raise SpecFormatError(f"domain needs {dim} intervals, got {len(intervals)}")

    return ProductStructure(
        dim=dim,
        n=n,
        metric_upper=metric_upper,
        dtilde=tuple(dtilde),
        params=params,
        domain=tuple(intervals),
        name=scalars.get("name", ""),
        source_text=text,
    )


def parse_intervals(text, what, error):
    """The (lo, hi) pairs of ``[lo, hi] x [lo, hi] x ...`` (a spec's domain,
    ``--box``): finite bounds with lo < hi, else ``error`` naming the
    interval as a ``what`` interval."""
    intervals = []
    for part in text.split("x"):
        part = part.strip()
        m = _INTERVAL_RE.match(part)
        if not m:
            raise error(f"bad {what} interval {part!r}")
        try:
            lo, hi = float(m.group(1)), float(m.group(2))
        except ValueError:
            raise error(f"bad {what} interval {part!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise error(f"non-finite {what} interval {part!r}")
        if not lo < hi:
            raise error(f"empty {what} interval {part!r}")
        intervals.append((lo, hi))
    return tuple(intervals)


def _split_top_level(text):
    parts, depth_, start = [], 0, 0
    for i, c in enumerate(text):
        if c == "(":
            depth_ += 1
        elif c == ")":
            depth_ -= 1
        elif c == "," and depth_ == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return [p for p in parts if p]


# ----------------------------------------------------------------------
# Adapted orthonormal frames under indefinite metrics

@dataclass
class AdaptedFrame:
    """The frame of ``orthonormal_frame`` with the batch axes first: its
    vectors as rows, tangent block first (a float array, or a jet field at
    jet inputs), and their signs g(e_a, e_a) as a float array."""
    vectors: object
    signs: np.ndarray
    n: int             # rank of the distribution: the tangent block's size

    @property
    def eps_tan(self):
        return self.signs[..., :self.n]

    @property
    def eps_perp(self):
        return self.signs[..., self.n:]


def _form(v, g, w):
    """g(v, w) = sum v_i g_ij w_j over trailing axes, each term (v_i g_ij) w_j
    added in row-major order to 0.0, one left fold, so the rounding (and an
    exact tie between candidates) does not depend on the batch."""
    terms = v[..., :, None] * g * w[..., None, :]
    return terms.reshape(terms.shape[:-2] + (v.shape[-1] ** 2,)).cumsum(-1)[..., -1] + 0.0


def _float_pass(g0, span0, tol, point):
    """The pivoted Gram-Schmidt pass over float arrays with leading batch
    axes: (frame rows, signs, pivots of the complement) of the batch shape +
    (dim, dim), + (dim,) and + (dim - n,).  Each new frame vector is
    projected out of every later candidate row (the span vectors, then the
    unit vectors).  A complement step picks the first of the largest
    |g(v, v)| not yet taken, skipping one reduced to rounding noise of
    |g(e_mu, e_mu)| (it lies in the frame's span).  A vector is null when
    |g(v, v)| is negligible against sum |g_ij| |v_i| |v_j|, its size without
    cancellation.  A member that degenerates goes on with the vector as it
    is; the first failing member in batch order raises its first
    degeneracy, naming its point (see ``member_point``)."""
    n, d = span0.shape[-2:]
    batch = np.broadcast_shapes(g0.shape[:-2], span0.shape[:-2])
    g = np.empty(batch + (d, d))
    W = np.empty(batch + (n + d, d))                 # candidate rows: span, then units
    g[...], W[..., :n, :], W[..., n:, :] = g0, span0, np.eye(d)
    g, W = g.reshape(-1, 1, d, d), W.reshape(-1, n + d, d)
    U = W[:, n:]                                     # the complement's candidates
    gabs = np.abs(g[:, 0])
    # a candidate is eligible while |g(v, v)| exceeds its floor; a taken one's is inf
    floor = tol * gabs.diagonal(0, 1, 2)
    N = len(g)
    F, S, bad = np.empty((N, d, d)), np.empty((N, d)), np.empty((N, d), dtype=bool)
    pivots = np.empty((N, d - n), dtype=np.intp)
    rows = np.arange(N)
    for k in range(d):
        if k < n:
            v = W[:, k]
            q = _form(v, g[:, 0], v)
            size = np.abs(q)
        else:
            Q = _form(U, g, U)
            size = np.where(np.abs(Q) > floor, np.abs(Q), -1.0)
            best = size.argmax(1)
            v, q, size = U[rows, best], Q[rows, best], size[rows, best]
            floor[rows, best] = np.inf
            pivots[:, k - n] = best
        a = np.abs(v)
        bad[:, k] = null = size <= tol * np.einsum("...m,...mn,...n->...", a, gabs, a)
        S[:, k] = s = np.where(q > 0.0, 1.0, -1.0)
        F[:, k] = e = v / np.sqrt(np.where(null, 1.0, size))[:, None]
        if k + 1 < d:
            rest = W[:, min(k + 1, n):]
            rest -= (s[:, None] * _form(rest, g, e[:, None]))[..., None] * e[:, None]
    if bad.any():
        first = bad.any(axis=1).argmax()
        raise DegenerateDistributionError(
            "no non-null candidate for the orthogonal complement" if bad[first].argmax() >= n
            else "distribution vector is null or dependent",
            point=member_point(point, np.unravel_index(first, batch)))
    return (F.reshape(batch + (d, d)), S.reshape(batch + (d,)),
            pivots.reshape(batch + (d - n,)))


def orthonormal_frame(gmat, span_vectors, dim, point=None):
    """Pivoted indefinite Gram-Schmidt over floats or jet fields.

    Span vectors are orthogonalized in declared order; the complement is
    filled from coordinate basis vectors.  The float pass over the value
    parts (``_float_pass``) chooses the pivots (to avoid near-null vectors),
    the signs and the frame's values F0, and raises every degeneracy.  When
    either input is an array jet (a field at seeds, see
    :func:`mixedcurv.jets.dense`), one triangular jet correction then gives
    the frame as the rows of one field.  With W the candidate rows (span,
    then the pivoted unit rows), F0 = T0 W0 for a lower triangular T0, and
    Ê = F0 + T0 (W - W0) has the frame's value.  Ê g Êᵀ = S + X with X of
    zero value; the frame is E = (I + Z)⁻¹ Ê = (I - Z + Z²) Ê, exact at
    order 2, where the lower triangular Z of zero value solves
    Z S + S Zᵀ + Z S Zᵀ = X (two fixed-point steps).  Since the selection is
    locally constant, E is the Gram-Schmidt frame of the rows W under g.

    A metric with leading batch axes, shape B + (dim, dim), is a batch of
    metrics at one point (the span vectors may carry B or not).  The float
    pass runs on trailing axes, so each member takes its own pivot order
    and signs, which enter the correction as the member's candidate rows,
    T0 and S.  The frame's rows then have shape B + (dim, dim) and its
    signs B + (dim,).
    """
    F0, S, pivots = _float_pass(values(gmat), values(span_vectors), DEGENERACY_TOL, point)
    batch, n = S.shape[:-1], dim - pivots.shape[-1]
    if not (isinstance(gmat, ArrayJet) or isinstance(span_vectors, ArrayJet)):
        return AdaptedFrame(F0, S, n)
    W = concatenate((broadcast_to(dense(span_vectors, dim), batch + (n, dim)),
                     dense(np.eye(dim)[pivots], dim)), axis=len(batch))
    W0 = values(W)
    T0 = np.tril(np.linalg.solve(W0.mT, F0.mT).mT)
    Ehat = F0 + T0 @ (W - W0)
    X = Ehat @ dense(gmat, dim) @ Ehat.mT
    X = X - values(X)
    # Z S is the strict lower part of X - Z S Zᵀ plus half its diagonal
    lower = np.tril(np.ones((dim, dim)), -1) + 0.5 * np.eye(dim)
    ZS = X * lower
    ZS = (X - ZS @ (ZS * S[..., None, :]).mT) * lower
    Z = ZS * S[..., None, :]
    return AdaptedFrame((np.eye(dim) - Z + Z @ Z) @ Ehat, S, n)


def signature(s, point):
    """Frame signs at ``point``; checks sign stability over 16 seeded domain samples."""
    def signs(pt):
        fr = orthonormal_frame(s.metric_at(pt), s.dtilde_at(pt), s.dim, point=_values(pt))
        return tuple(fr.eps_tan.tolist()), tuple(fr.eps_perp.tolist())

    base = signs(point)
    for q in s.interior_points(16, 20260505):
        other = signs(q)
        if other != base:
            raise SignatureInstabilityError(
                f"frame signs {base} at {tuple(_values(point))} flip to {other} at {q}")
    return base
