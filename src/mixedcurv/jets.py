"""Forward-mode automatic differentiation on truncated Taylor scalars ("jets").

A :class:`Jet` stores a value, a gradient over the active chart variables
and, at order 2, a symmetric Hessian, all as plain floats.  Every
quantity of the engine is a first or second chart derivative of the metric
and the distribution, so order 2 is the highest it seeds.

Plain ``int``/``float`` scalars mix freely with jets, so numeric code written
with ordinary operators runs unchanged on either kind.  Binary operations
between jets of different order truncate to the lower order.

This module is the only one that knows a jet's layout.  Other modules build
jets with :func:`seed`, :func:`promote`, :func:`order1` and :func:`dshift`,
and read them back through :func:`value_of`.  A jet tensor field is a numpy
``dtype=object`` array of jets and floats; :func:`order1` and :func:`dshift`
act on it entrywise, and :func:`values` (the float array) and
:func:`gradients` (the gradient array, derivative index first) read it back.
The same functions accept nested lists of scalars.

An :class:`ArrayJet` is the same jet at N nodes at once (Taylor arithmetic in
the vector forward mode): its value, gradient and Hessian carry a leading
node axis.  Seeding a batch of points gives array jets, every function above
accepts them, and :func:`values` and :func:`gradients` put the node axis
first: ``values(J)[k][...]`` and ``gradients(J, d)[k][m][...]`` are node k's.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import InvalidArgumentError, SingularEvaluationError


class Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=None):
        self.v = v
        self.g = tuple(g)
        self.h = None if h is None else tuple(tuple(row) for row in h)

    # ------------------------------------------------------------------
    @property
    def nvars(self):
        return len(self.g)

    def __repr__(self):
        return f"Jet(v={self.v!r}, g={self.g!r}, h={self.h!r})"

    def _zero_like(self):
        n = self.nvars
        h = None if self.h is None else tuple((0.0,) * n for _ in range(n))
        return Jet(0.0, (0.0,) * n, h)

    # ------------------------------------------------------------------
    # An array operand defers to numpy, which applies the operation entrywise.

    def _binary_parts(self, other):
        """Align two operands; returns (a_v,a_g,a_h, b_v,b_g,b_h, n, order2)."""
        if isinstance(other, Jet):
            if other.nvars != self.nvars:
                raise InvalidArgumentError(
                    f"jet variable counts differ: {self.nvars} vs {other.nvars}")
            order2 = self.h is not None and other.h is not None
            return (self.v, self.g, self.h, other.v, other.g, other.h,
                    self.nvars, order2)
        n = self.nvars
        zg = (0.0,) * n
        return (self.v, self.g, self.h, other, zg, None, n, self.h is not None)

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        av, ag, ah, bv, bg, bh, n, o2 = self._binary_parts(other)
        g = tuple(ag[i] + bg[i] for i in range(n))
        h = None
        if o2:
            if bh is None:
                h = ah
            else:
                h = tuple(tuple(ah[i][j] + bh[i][j] for j in range(n)) for i in range(n))
        return Jet(av + bv, g, h)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        h = None if self.h is None else tuple(tuple(-x for x in row) for row in self.h)
        return Jet(-self.v, tuple(-x for x in self.g), h)

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        av, ag, ah, bv, bg, bh, n, o2 = self._binary_parts(other)
        g = tuple(ag[i] * bv + av * bg[i] for i in range(n))
        h = None
        if o2:
            rows = []
            for i in range(n):
                agi, bgi = ag[i], bg[i]
                ahi = ah[i]
                bhi = None if bh is None else bh[i]
                row = []
                for j in range(n):
                    x = ahi[j] * bv + agi * bg[j] + ag[j] * bgi
                    if bhi is not None:
                        x = x + av * bhi[j]
                    row.append(x)
                rows.append(tuple(row))
            h = tuple(rows)
        return Jet(av * bv, g, h)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if not isinstance(other, Jet):
            if other == 0.0:
                raise SingularEvaluationError("division by zero scalar")
            n = self.nvars
            h = None
            if self.h is not None:
                h = tuple(tuple(x / other for x in row) for row in self.h)
            return Jet(self.v / other, tuple(x / other for x in self.g), h)
        if other.v == 0.0:
            raise SingularEvaluationError("division by jet with zero value")
        av, ag, ah, bv, bg, bh, n, o2 = self._binary_parts(other)
        q = av / bv
        dq = tuple((ag[i] - q * bg[i]) / bv for i in range(n))
        h = None
        if o2:
            h = tuple(tuple((ah[i][j] - q * bh[i][j] - dq[i] * bg[j] - dq[j] * bg[i]) / bv
                            for j in range(n)) for i in range(n))
        return Jet(q, dq, h)

    def __rtruediv__(self, other):
        # other is a plain scalar
        if self.v == 0.0:
            raise SingularEvaluationError("division by jet with zero value")
        n = self.nvars
        q = other / self.v
        w = q / self.v
        dq = tuple(-w * self.g[i] for i in range(n))
        h = None
        if self.h is not None:
            h = tuple(tuple((-q * self.h[i][j] - dq[i] * self.g[j] - dq[j] * self.g[i]) / self.v
                            for j in range(n)) for i in range(n))
        return Jet(q, dq, h)

    def _reciprocal(self):
        if self.v == 0.0:
            raise SingularEvaluationError("division by jet with zero value")
        q = 1.0 / self.v
        q2 = q * q
        n = self.nvars
        g = tuple(-self.g[i] * q2 for i in range(n))
        h = None
        if self.h is not None:
            q3 = q2 * q
            h = tuple(tuple(2.0 * self.g[i] * self.g[j] * q3 - self.h[i][j] * q2
                            for j in range(n)) for i in range(n))
        return Jet(q, g, h)

    def __pow__(self, e):
        if isinstance(e, Jet):
            # general exponent via exp(e*log(base))
            return jexp(e * jlog(self))
        if not isinstance(e, (int, float)):
            raise InvalidArgumentError(f"unsupported exponent {e!r}")
        if float(e) == int(e):
            k = int(e)
            if k == 0:
                one = self._zero_like()
                return one + 1.0
            if k < 0:
                return self._reciprocal() ** (-k)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        if self.v <= 0.0:
            raise SingularEvaluationError(
                f"non-integer power of non-positive value {self.v}")
        f0 = self.v ** e
        f1 = e * self.v ** (e - 1.0)
        f2 = e * (e - 1.0) * self.v ** (e - 2.0)
        return self._compose(f0, f1, f2)

    def __rpow__(self, base):
        return jexp(self * math.log(base))

    # ------------------------------------------------------------------
    def _compose(self, f0, f1, f2):
        """Chain rule for a scalar function with derivatives f0, f1, f2 at v."""
        n = self.nvars
        g = tuple(f1 * self.g[i] for i in range(n))
        h = None
        if self.h is not None:
            h = tuple(tuple(f1 * self.h[i][j] + f2 * self.g[i] * self.g[j]
                            for j in range(n)) for i in range(n))
        return Jet(f0, g, h)

    def __float__(self):
        raise TypeError("implicit Jet->float conversion is a bug; use value_of()")


class ArrayJet:
    """A jet at N nodes: value v (N,), gradient g (N, d) and, at order 2,
    Hessian h (N, d, d), else None.

    Every operation is :class:`Jet`'s, node by node, by the same formulas in
    the same order.  It raises :class:`SingularEvaluationError` when
    :class:`Jet` would at any node; an elementary function whose value
    overflows raises ``OverflowError`` as ``math`` does.  The arrays are
    never written in place, so jets may share them.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=None):
        self.v = v
        self.g = g
        self.h = h

    @property
    def nvars(self):
        return self.g.shape[1]

    def __repr__(self):
        return f"ArrayJet(v={self.v!r}, g={self.g!r}, h={self.h!r})"

    def _is_jet(self, other):
        """True for an array jet operand, False for a plain scalar."""
        if isinstance(other, ArrayJet):
            if other.g.shape != self.g.shape:
                raise InvalidArgumentError(
                    f"array jet shapes differ: {self.g.shape} vs {other.g.shape}")
            return True
        if isinstance(other, Jet):
            raise InvalidArgumentError("an array jet does not combine with a Jet")
        return False

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if not self._is_jet(other):
            return ArrayJet(self.v + other, self.g, self.h)
        h = None if self.h is None or other.h is None else self.h + other.h
        return ArrayJet(self.v + other.v, self.g + other.g, h)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return ArrayJet(-self.v, -self.g, None if self.h is None else -self.h)

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if not self._is_jet(other):
            return ArrayJet(self.v * other, self.g * other,
                            None if self.h is None else self.h * other)
        av, ag, bv, bg = self.v[:, None], self.g, other.v[:, None], other.g
        h = None
        if self.h is not None and other.h is not None:
            S = _outer(ag, bg)
            h = self.h * bv[:, :, None] + S + _T(S) + av[:, :, None] * other.h
        return ArrayJet(self.v * other.v, ag * bv + av * bg, h)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if not self._is_jet(other):
            if other == 0.0:
                raise SingularEvaluationError("division by zero scalar")
            return ArrayJet(self.v / other, self.g / other,
                            None if self.h is None else self.h / other)
        _nonzero(other.v)
        bv, bg = other.v, other.g
        q = self.v / bv
        dq = (self.g - q[:, None] * bg) / bv[:, None]
        h = None
        if self.h is not None and other.h is not None:
            S = _outer(dq, bg)
            h = (self.h - q[:, None, None] * other.h - S - _T(S)) / bv[:, None, None]
        return ArrayJet(q, dq, h)

    def __rtruediv__(self, other):
        # other is a plain scalar
        _nonzero(self.v)
        q = other / self.v
        w = q / self.v
        dq = -w[:, None] * self.g
        h = None
        if self.h is not None:
            S = _outer(dq, self.g)
            h = (-q[:, None, None] * self.h - S - _T(S)) / self.v[:, None, None]
        return ArrayJet(q, dq, h)

    def _reciprocal(self):
        _nonzero(self.v)
        q = 1.0 / self.v
        q2 = q * q
        g = -self.g * q2[:, None]
        h = None
        if self.h is not None:
            q3 = q2 * q
            h = (_outer(2.0 * self.g, self.g) * q3[:, None, None]
                 - self.h * q2[:, None, None])
        return ArrayJet(q, g, h)

    def __pow__(self, e):
        if isinstance(e, ArrayJet):
            return jexp(e * jlog(self))
        if not isinstance(e, (int, float)):
            raise InvalidArgumentError(f"unsupported exponent {e!r}")
        if float(e) == int(e):
            k = int(e)
            if k == 0:
                return ArrayJet(np.ones_like(self.v), np.zeros_like(self.g),
                                None if self.h is None else np.zeros_like(self.h))
            if k < 0:
                return self._reciprocal() ** (-k)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        bad = self.v <= 0.0
        if bad.any():
            raise SingularEvaluationError(
                f"non-integer power of non-positive value {self.v[bad][0]}")
        f0 = _finite_power(self.v, e)
        f1 = e * _finite_power(self.v, e - 1.0)
        f2 = e * (e - 1.0) * _finite_power(self.v, e - 2.0)
        return self._compose(f0, f1, f2)

    def __rpow__(self, base):
        return jexp(self * math.log(base))

    def _compose(self, f0, f1, f2):
        g = f1[:, None] * self.g
        h = None
        if self.h is not None:
            h = f1[:, None, None] * self.h + _outer(f2[:, None] * self.g, self.g)
        return ArrayJet(f0, g, h)

    def __float__(self):
        raise TypeError("implicit ArrayJet->float conversion is a bug; use value_of()")


_JETS = (Jet, ArrayJet)


def _outer(a, b):
    """a_i b_j at every node, for (N, d) arrays."""
    return a[:, :, None] * b[:, None, :]


def _T(S):
    """S_ji at every node: b_i a_j for S = _outer(a, b), the same products."""
    return S.transpose(0, 2, 1)


def _nonzero(v):
    if (v == 0.0).any():
        raise SingularEvaluationError("division by jet with zero value")


def _finite_power(v, e):
    """v ** e at every node; an overflow raises as a float power does."""
    with np.errstate(over="ignore"):
        out = v ** e
    if np.isinf(out).any():
        raise OverflowError("(34, 'Numerical result out of range')")
    return out


def value_of(x):
    """Float value of a scalar, jet or plain number (an array of node
    values for an array jet)."""
    return x.v if isinstance(x, _JETS) else float(x)


def seed(point, order):
    """One jet per coordinate: value ``point[i]``, gradient the i-th basis
    vector.  An (N, d) array of points gives d array jets over N nodes."""
    if order not in (1, 2):
        raise InvalidArgumentError(f"jet order must be 1 or 2, got {order}")
    if np.ndim(point) == 2:
        P = np.array(point, dtype=float)
        if not np.isfinite(P).all():
            raise InvalidArgumentError("seed point must be finite")
        N, n = P.shape
        eye = np.eye(n)
        zh = np.zeros((N, n, n)) if order == 2 else None
        return [ArrayJet(P[:, i].copy(), np.broadcast_to(eye[i], (N, n)), zh)
                for i in range(n)]
    pt = [float(c) for c in point]
    if not all(math.isfinite(c) for c in pt):
        raise InvalidArgumentError("seed point must be finite")
    n = len(pt)
    zh = tuple((0.0,) * n for _ in range(n)) if order == 2 else None
    return [Jet(c, tuple(1.0 if j == i else 0.0 for j in range(n)), zh)
            for i, c in enumerate(pt)]


def promote(x, d):
    """Coerce a plain scalar to a zero-derivative order-2 jet in d variables."""
    if isinstance(x, _JETS):
        return x
    z = (0.0,) * d
    return Jet(float(x), z, tuple(z for _ in range(d)))


def _order1(x):
    if isinstance(x, Jet) and x.h is not None:
        return Jet(x.v, x.g, None)
    if isinstance(x, ArrayJet) and x.h is not None:
        return ArrayJet(x.v, x.g, None)
    return x


_order1_entrywise = np.frompyfunc(_order1, 1, 1)


def order1(X):
    """Truncate to order 1 (used for field-level algebra); entrywise on an
    array or nested list, which comes back as an object array."""
    if isinstance(X, (list, tuple, np.ndarray)):
        return _order1_entrywise(np.asarray(X, dtype=object))
    return _order1(X)


def _partials(x, d):
    if isinstance(x, _JETS):
        if x.h is None:
            raise SingularEvaluationError("second-order jet required for field derivative")
        if isinstance(x, ArrayJet):
            return [ArrayJet(x.g[:, m], x.h[:, m], None) for m in range(d)]
        return [Jet(x.g[m], x.h[m], None) for m in range(d)]
    return [0.0] * d


def dshift(X, d):
    """Every partial derivative of order-2 jets in d variables, as order-1
    jets in an object array with the derivative index first:
    ``dshift(X, d)[m][...] = d_m X[...]``, zero for plain floats."""
    A = np.asarray(X, dtype=object)
    D = np.empty((A.size, d), dtype=object)
    D[...] = [_partials(x, d) for x in A.flat]
    return np.ascontiguousarray(D.T).reshape((d,) + A.shape)


def _nodes(entries):
    """The node count of the first array jet among ``entries``, else None."""
    return next((x.v.shape[0] for x in entries if isinstance(x, ArrayJet)), None)


def values(J):
    """The float array of an array or nested list of scalars (floats and
    jets).  With array jets among them the node axis comes first, and a
    float is the same at every node."""
    A = np.asarray(J, dtype=object)
    flat = list(A.flat)
    N = _nodes(flat)
    if N is None:
        return np.array([value_of(x) for x in flat], dtype=float).reshape(A.shape)
    V = np.empty((N, len(flat)))
    for k, x in enumerate(flat):
        V[:, k] = value_of(x)
    return V.reshape((N,) + A.shape)


def gradients(J, d):
    """The gradient array of an array or nested list of scalars in d
    variables, the derivative index first: ``gradients(J, d)[m][...] = d_m
    J[...]``.  Plain floats have zero gradient.  The array is C-contiguous,
    as if built from nested lists in that index order, so numpy reductions
    over it add in the same order as over such an array.  With array jets
    among the scalars the node axis comes first, ``gradients(J, d)[k][m]``."""
    A = np.asarray(J, dtype=object)
    flat = list(A.flat)
    N = _nodes(flat)
    if N is None:
        zero = (0.0,) * d
        G = np.array([x.g if isinstance(x, Jet) else zero for x in flat], dtype=float)
        return np.ascontiguousarray(G.T).reshape((d,) + A.shape)
    G = np.zeros((N, d, len(flat)))
    for k, x in enumerate(flat):
        if isinstance(x, ArrayJet):
            G[:, :, k] = x.g
    return G.reshape((N, d) + A.shape)


def where(mask, a, b, d):
    """Node by node, ``a`` where the boolean node array ``mask`` holds and
    ``b`` elsewhere; each is an array jet in d variables or a float, and a
    float counts as a jet of any order with zero derivatives."""
    if not isinstance(a, ArrayJet) and not isinstance(b, ArrayJet) and a == b:
        return a
    N = len(mask)

    def part(x, k, shape):
        if not isinstance(x, ArrayJet):
            return np.full(shape, float(x)) if k == 0 else np.zeros(shape)
        return (x.v, x.g, x.h)[k]

    v = np.where(mask, part(a, 0, N), part(b, 0, N))
    g = np.where(mask[:, None], part(a, 1, (N, d)), part(b, 1, (N, d)))
    ha, hb = part(a, 2, (N, d, d)), part(b, 2, (N, d, d))
    h = None if ha is None or hb is None else np.where(mask[:, None, None], ha, hb)
    return ArrayJet(v, g, h)


# ----------------------------------------------------------------------
# Elementary functions, generic over float / Jet / ArrayJet.  On a jet each
# takes f(v), f'(v) and f''(v) at the jet's value v and applies the chain
# rule; ``m`` is the namespace of the functions at v, ``math`` for a Jet and
# numpy's for an ArrayJet.

_NP = SimpleNamespace(sin=np.sin, cos=np.cos, tan=np.tan, exp=np.exp, sinh=np.sinh,
                      cosh=np.cosh, tanh=np.tanh, atan=np.arctan, log=np.log,
                      sqrt=np.sqrt)


def _ns(x):
    return _NP if isinstance(x, ArrayJet) else math


def _elementary(f, taylor, overflows=False):
    """``overflows``: ``f`` raises OverflowError where its value overflows."""
    def op(x):
        if isinstance(x, Jet):
            return x._compose(*taylor(x.v, math))
        if isinstance(x, ArrayJet):
            with np.errstate(over="ignore", invalid="ignore"):
                parts = taylor(x.v, _NP)
            if overflows and np.isinf(parts[0]).any():
                raise OverflowError("math range error")
            return x._compose(*parts)
        return f(x)
    return op


def _tan(v, m):
    t = m.tan(v)
    sec2 = 1.0 + t * t
    return t, sec2, 2.0 * t * sec2


def _tanh(v, m):
    t = m.tanh(v)
    sech2 = 1.0 - t * t
    return t, sech2, -2.0 * t * sech2


def _atan(v, m):
    w = 1.0 / (1.0 + v * v)
    return m.atan(v), w, -2.0 * v * w * w


jsin = _elementary(math.sin, lambda v, m: (m.sin(v), m.cos(v), -m.sin(v)))
jcos = _elementary(math.cos, lambda v, m: (m.cos(v), -m.sin(v), -m.cos(v)))
jtan = _elementary(math.tan, _tan)
jexp = _elementary(math.exp, lambda v, m: (m.exp(v),) * 3, overflows=True)
jsinh = _elementary(math.sinh, lambda v, m: (m.sinh(v), m.cosh(v), m.sinh(v)),
                    overflows=True)
jcosh = _elementary(math.cosh, lambda v, m: (m.cosh(v), m.sinh(v), m.cosh(v)),
                    overflows=True)
jtanh = _elementary(math.tanh, _tanh)
jatan = _elementary(math.atan, _atan)


def _positive(x, what):
    """Raise unless the value of x is positive (at every node)."""
    v = value_of(x)
    if isinstance(x, ArrayJet):
        bad = v <= 0.0
        if bad.any():
            raise SingularEvaluationError(f"{what} of non-positive value {v[bad][0]}")
    elif v <= 0.0:
        raise SingularEvaluationError(f"{what} of non-positive value {v}")
    return v


def jlog(x):
    v = _positive(x, "log")
    if isinstance(x, _JETS):
        return x._compose(_ns(x).log(v), 1.0 / v, -1.0 / (v * v))
    return math.log(x)


def jsqrt(x):
    if isinstance(x, _JETS):
        v = _positive(x, "sqrt")
        s = _ns(x).sqrt(v)
        return x._compose(s, 0.5 / s, -0.25 / (s * v))
    if x < 0.0:
        raise SingularEvaluationError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def jpow(a, b):
    """Power with jet/float dispatch; value bits agree across scalar kinds."""
    if isinstance(b, _JETS):
        return jexp(b * jlog(a))
    if float(b) == int(b):
        if isinstance(a, _JETS):
            return a ** int(b)
        k = int(b)
        if k == 0:
            return 1.0
        if k < 0:
            if a == 0.0:
                raise SingularEvaluationError("zero to a negative power")
            base, k = 1.0 / a, -k
        else:
            base = a
        out = base
        for _ in range(k - 1):
            out = out * base
        return out
    if isinstance(a, _JETS):
        return a ** b
    if a <= 0.0:
        raise SingularEvaluationError(
            f"non-integer power of non-positive value {a}")
    return a ** b


ELEMENTARY = {
    "sin": jsin,
    "cos": jcos,
    "tan": jtan,
    "sinh": jsinh,
    "cosh": jcosh,
    "tanh": jtanh,
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
    "atan": jatan,
}


def elementary(a, fn):
    """Apply one of the supported elementary functions to a scalar or jet."""
    try:
        f = ELEMENTARY[fn]
    except KeyError:
        raise InvalidArgumentError(f"unknown elementary function {fn!r}") from None
    return f(a)

def check_finite(x, point=None):
    """NaN policy: abort evaluation on any non-finite value (at any node)."""
    v = value_of(x)
    if not (np.isfinite(v).all() if isinstance(x, ArrayJet) else math.isfinite(v)):
        raise SingularEvaluationError("non-finite intermediate value", point=point)
    return x
