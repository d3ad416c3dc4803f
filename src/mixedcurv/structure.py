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
        return all(lo - 1e-12 <= value_of(x) <= hi + 1e-12
                   for x, (lo, hi) in zip(point, self.domain))

    def require_inside(self, point):
        if not self.contains(point):
            raise DomainError(f"point {tuple(value_of(x) for x in point)} outside "
                              f"domain box {self.domain}")

    def require_box(self, box):
        """Raise unless the box, as (lo, hi) per coordinate, lies inside the
        domain box: the check of every box integral and of ``--box``."""
        intervals = [tuple(iv) for iv in box]
        if not all(self.contains(corner) for corner in zip(*intervals)):
            raise DomainError(f"box {intervals} leaves the domain box {self.domain}")

    def interior_points(self, count, rng_seed, margin=0.15):
        """Deterministic sample of interior points, away from the box edges."""
        rng = random.Random(rng_seed)
        pts = []
        for _ in range(count):
            pt = []
            for lo, hi in self.domain:
                w = hi - lo
                pt.append(lo + w * (margin + (1.0 - 2.0 * margin) * rng.random()))
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

    intervals = []
    for part in scalars["domain"].split("x"):
        part = part.strip()
        m = _INTERVAL_RE.match(part)
        if not m:
            raise SpecFormatError(f"bad domain interval {part!r}")
        lo, hi = float(m.group(1)), float(m.group(2))
        if not lo < hi:
            raise SpecFormatError(f"empty domain interval {part!r}")
        intervals.append((lo, hi))
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
    """The frame of ``orthonormal_frame``; on a batch the vectors are jet
    fields and the signs arrays, with the batch axes first."""
    E: list            # n frame vectors tangent to the distribution (chart comps, rows)
    eps_tan: list      # their signs g(E_a, E_a)
    Eperp: list        # p frame vectors spanning the orthogonal complement
    eps_perp: list

    @property
    def vectors(self):
        """The frame vectors as rows, tangent block first: a list at float
        inputs, else one field."""
        if isinstance(self.E, list):
            return self.E + self.Eperp
        return concatenate((self.E, self.Eperp), axis=self.E.ndim - 2)

    @property
    def signs(self):
        return np.concatenate((self.eps_tan, self.eps_perp), axis=-1).tolist()


def _inner(gmat, v, w):
    total = 0.0
    for i, vi in enumerate(v):
        row = gmat[i]
        for j, wj in enumerate(w):
            total = total + vi * row[j] * wj
    return total


def _null(gabs, v, q, tol):
    """g(v, v) = q is negligible against sum |g_ij| |v_i| |v_j|, the size it
    would have without cancellation (``gabs`` holds the |g_ij|); a zero
    vector is null."""
    a = np.abs(np.asarray(v, dtype=float))
    return abs(q) <= tol * np.einsum("m,mn,n->", a, gabs, a)


def _float_pass(g0, span0, dim, tol, point):
    """The pivoted Gram-Schmidt pass over floats at one point: (frame rows,
    signs, pivots of the complement) as lists."""
    gabs = np.abs(np.array(g0))
    frame0, signs0 = [], []
    for v in span0:
        for e, s in zip(frame0, signs0):
            c = _inner(g0, v, e)
            v = [v[i] - s * c * e[i] for i in range(dim)]
        q = _inner(g0, v, v)
        if _null(gabs, v, q, tol):
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
        if best is None or _null(gabs, best_v, best_q, tol):
            raise DegenerateDistributionError(
                "no non-null candidate for the orthogonal complement", point=point)
        del candidates[best]
        pivots.append(best)
        q = best_q
        s = 1.0 if q > 0.0 else -1.0
        frame0.append([x / math.sqrt(s * q) for x in best_v])
        signs0.append(s)
    return frame0, signs0, pivots


def orthonormal_frame(gmat, span_vectors, dim, tol=DEGENERACY_TOL, point=None):
    """Pivoted indefinite Gram-Schmidt over floats or jet fields.

    Span vectors are orthogonalized in declared order; the complement is
    filled from coordinate basis vectors.  A float pass over the value parts
    chooses the pivots (the largest |g(v,v)| among the reduced candidates,
    to avoid near-null vectors), the signs and the frame's values F0, and
    raises every degeneracy; nullness is relative to each vector's own size
    (``_null``).  When either input is an array jet (a field at seeds, see
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
    pass runs member by member, so each member takes its own pivot order
    and signs, which enter the correction as the member's candidate rows,
    T0 and S.  The frame is then a field of shape B + (dim, dim) and the
    signs arrays of shape B + (n,) and B + (dim - n,).
    """
    g0, span0 = values(gmat), values(span_vectors)
    n = span0.shape[-2]
    batch = np.broadcast_shapes(g0.shape[:-2], span0.shape[:-2])
    g0 = np.broadcast_to(g0, batch + (dim, dim))
    span0 = np.broadcast_to(span0, batch + (n, dim))
    passes = [_float_pass(g0[b].tolist(), span0[b].tolist(), dim, tol, member_point(point, b))
              for b in np.ndindex(batch)]
    if not (batch or isinstance(gmat, ArrayJet) or isinstance(span_vectors, ArrayJet)):
        frame, signs, _ = passes[0]
        return AdaptedFrame(E=frame[:n], eps_tan=signs[:n], Eperp=frame[n:],
                            eps_perp=signs[n:])
    F0, S, pivots = (np.reshape([p[k] for p in passes], batch + shape)
                     for k, shape in enumerate([(dim, dim), (dim,), (dim - n,)]))
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
    E = (np.eye(dim) - Z + Z @ Z) @ Ehat
    eps_tan, eps_perp = S[..., :n], S[..., n:]
    if not batch:
        eps_tan, eps_perp = eps_tan.tolist(), eps_perp.tolist()
    return AdaptedFrame(E=E[..., :n, :], eps_tan=eps_tan, Eperp=E[..., n:, :],
                        eps_perp=eps_perp)


def adapted_frame(s, point, metric=None, dtilde=None):
    """Adapted orthonormal frame of a structure at a point (floats or jets)."""
    gmat = s.metric_at(point) if metric is None else metric
    span = s.dtilde_at(point) if dtilde is None else dtilde
    return orthonormal_frame(gmat, span, s.dim, point=_values(point))


def signature(s, point, samples=16, rng_seed=20260505):
    """Frame signs at ``point``; checks sign stability over domain samples."""
    fr = adapted_frame(s, point)
    base = (tuple(fr.eps_tan), tuple(fr.eps_perp))
    for q in s.interior_points(samples, rng_seed):
        other = adapted_frame(s, q)
        if (tuple(other.eps_tan), tuple(other.eps_perp)) != base:
            raise SignatureInstabilityError(
                f"frame signs {base} at {tuple(_values(point))} flip to "
                f"{(tuple(other.eps_tan), tuple(other.eps_perp))} at {q}")
    return base
