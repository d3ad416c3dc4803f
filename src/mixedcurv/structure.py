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

import numpy as np

from . import exprlang
from .errors import (DegenerateDistributionError, DomainError,
                     SignatureInstabilityError, SpecFormatError)
from .jets import (ArrayJet, as_field, check_finite, concatenate, dense, jsqrt, tensordot,
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
        for (i, j), ast in self.metric_upper.items():
            v = check_finite(exprlang.evaluate(ast, env, self.params), point=_values(point))
            rows[i][j] = v
            if i != j:
                rows[j][i] = v
        return as_field(rows, env)

    def dtilde_at(self, point):
        """The n spanning fields (rows of dim components) as a field at
        ``point``, as :meth:`metric_at` gives the metric."""
        env = list(point)
        return as_field([[exprlang.evaluate(c, env, self.params) for c in vec]
                         for vec in self.dtilde], env)

    def contains(self, point):
        return all(lo - 1e-12 <= value_of(x) <= hi + 1e-12
                   for x, (lo, hi) in zip(point, self.domain))

    def require_inside(self, point):
        if not self.contains(point):
            raise DomainError(f"point {tuple(value_of(x) for x in point)} outside "
                              f"domain box {self.domain}")

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
    E: list            # n frame vectors tangent to the distribution (chart comps, rows)
    eps_tan: list      # their signs g(E_a, E_a)
    Eperp: list        # p frame vectors spanning the orthogonal complement
    eps_perp: list

    @property
    def vectors(self):
        return list(self.E) + list(self.Eperp)

    @property
    def signs(self):
        return list(self.eps_tan) + list(self.eps_perp)


def _inner(gmat, v, w):
    total = 0.0
    for i, vi in enumerate(v):
        row = gmat[i]
        for j, wj in enumerate(w):
            total = total + vi * row[j] * wj
    return total


def _null(gabs, v, q, tol):
    """g(v, v) = q is negligible against sum |g_ij| |v_i| |v_j|, the size it
    would have without cancellation (``gabs`` holds the |g_ij| and ``v``
    the values); a zero vector is null."""
    a = np.abs(np.asarray(v, dtype=float))
    return abs(value_of(q)) <= tol * float(a @ gabs @ a)


def _gs_pass(gmat, W, n_span, dim, tol, point):
    """Indefinite modified Gram-Schmidt on the rows of the jet field ``W``
    (span vectors first), right-looking: each new frame vector is projected
    out of all later rows at once, so every row takes its projections in the
    order of the row-by-row sweep.  Returns (frame rows as one jet field,
    signs)."""
    frame, signs = [], []
    gabs = np.abs(values(gmat))
    for k in range(dim):
        v, W = W[0], W[1:]
        gv = gmat @ v
        q = v @ gv
        if _null(gabs, values(v), q, tol):
            raise DegenerateDistributionError(
                "distribution vector is null or dependent" if k < n_span else
                "no non-null candidate for the orthogonal complement", point=point)
        s = 1.0 if value_of(q) > 0.0 else -1.0
        inv = 1.0 / jsqrt(s * q)
        e = v * inv
        frame.append(e)
        signs.append(s)
        if k + 1 < dim:
            c = W @ (gv * inv)                    # g(e, w) for every later row w
            W = W - tensordot(s * c, e, axes=0)
    return concatenate([e[None] for e in frame]), signs


def orthonormal_frame(gmat, span_vectors, dim, tol=DEGENERACY_TOL, point=None):
    """Pivoted indefinite Gram-Schmidt over floats or jet fields.

    Span vectors are orthogonalized in declared order; the complement is
    filled from coordinate basis vectors.  Pivoting (on the largest |g(v,v)|
    among the reduced candidates, to avoid near-null vectors) is decided on a
    cheap float pass over the value parts; when either input is an array jet
    (a field at seeds), a jet pass on array jets (see
    :func:`mixedcurv.jets.dense`) then runs the chosen order, so the
    selection is locally constant and jet-differentiable, and the frame
    vectors are the rows of one field.
    Nullness is relative to each vector's own size (``_null``).
    """
    n = np.shape(values(span_vectors))[0]

    g0 = values(gmat).tolist()
    gabs = np.abs(np.array(g0))
    frame0, signs0 = [], []
    for v in values(span_vectors).tolist():
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
            if abs(q) > size:
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

    if not (isinstance(gmat, ArrayJet) or isinstance(span_vectors, ArrayJet)):
        frame, signs = frame0, signs0
    else:
        gmat, span = dense(gmat, dim), dense(span_vectors, dim)
        W = concatenate((span, dense(np.eye(dim)[pivots], dim)))
        frame, signs = _gs_pass(gmat, W, n, dim, tol, point)

    return AdaptedFrame(
        E=frame[:n],
        eps_tan=[float(s) for s in signs[:n]],
        Eperp=frame[n:],
        eps_perp=[float(s) for s in signs[n:]],
    )


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
