"""Forward-mode automatic differentiation on truncated Taylor scalars ("jets").

A :class:`Jet` stores a value, a gradient over the active chart variables
and, at order 2, a symmetric Hessian, all as plain floats.  Every
quantity of the engine is a first or second chart derivative of the metric
and the distribution, so order 2 is the highest it seeds.

Plain ``int``/``float`` scalars mix freely with jets, so numeric code written
with ordinary operators runs unchanged on either kind.  Binary operations
between jets of different order truncate to the lower order.

This module is the only one that knows a jet's layout.  Other modules build
jets with :func:`seed`, :func:`as_field`, :func:`dense`, :func:`order1`,
:func:`dshift`, :func:`scatter` and :func:`inverse`, and read them back
through :func:`value_of`, :func:`values` (the float array) and :func:`gradients`
(the gradient array, derivative index first).

A jet tensor field is one :class:`ArrayJet` (Taylor arithmetic in the vector
forward mode): a value array of the tensor's shape S, and gradient and Hessian
arrays of shapes (d,) + S and (d, d) + S, derivative axes first.  The field
algebra is numpy's (``@``, transposes, indexing, ``diagonal``, broadcasting
ring operations and elementary functions) with the product rule, each term of
a product one ``np.matmul`` for ``@`` and one ``np.einsum`` for
:func:`einsum`, written once for any leading batch axes: a field of shape
B + S is a batch B of tensors of shape S, and the per-point field is the
empty batch.  :func:`order1`, :func:`dshift` and :func:`inverse` take an
array jet.

Seeding a batch of N points gives one array jet of shape (N,) per
coordinate, a scalar at N quadrature nodes.  A field at such node seeds has
the node axis first: shape (N,) + the tensor's shape.  Expression evaluation
gives nested lists of scalars (floats and jets); :func:`as_field` turns them
into the field of the seeds they were evaluated at (a float array at a float
point), and :func:`dense` turns any array or nested list of scalars into an
array jet.  Every reader sees that one layout: ``values(F)[k]`` is node k's
tensor and ``gradients(F, d)[m][k]`` its m-th partial derivative.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import InvalidArgumentError, SingularEvaluationError, member_point


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
    # An array or array jet operand takes over: numpy applies the operation
    # entrywise, and an array jet refuses a Jet.

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
        if isinstance(other, (np.ndarray, ArrayJet)):
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
        if isinstance(other, (np.ndarray, ArrayJet)):
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
        if isinstance(other, (np.ndarray, ArrayJet)):
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
    """A jet tensor field: value v of shape S, gradient g of shape (d,) + S
    and, at order 2, Hessian h of shape (d, d) + S, else None.

    S is the shape of a tensor at one point, or a node axis (N,) for one
    scalar at N nodes.  Ring operations, powers and elementary functions act
    entry by entry by :class:`Jet`'s formulas in the same order and
    broadcast between shapes as numpy does; a float or float array operand
    is a constant (:func:`jpow` raises a float to a jet power).  ``@``,
    :meth:`transpose`, :attr:`mT`, indexing and :meth:`diagonal` act as
    numpy's on the value, with the product rule on the derivatives.  It
    raises :class:`SingularEvaluationError` when :class:`Jet` would at any
    entry; an elementary function whose value overflows raises
    ``OverflowError`` as ``math`` does.  The arrays are never written in
    place, so jets may share them.
    """

    __slots__ = ("v", "g", "h")
    # numpy operands defer to the reflected operators below; without __len__
    # numpy also keeps an array jet whole inside an object array
    __array_ufunc__ = None

    def __init__(self, v, g, h=None):
        self.v = v
        self.g = g
        self.h = h

    @property
    def nvars(self):
        return self.g.shape[0]

    @property
    def shape(self):
        return np.shape(self.v)

    @property
    def ndim(self):
        return np.ndim(self.v)

    def __repr__(self):
        return f"ArrayJet(v={self.v!r}, g={self.g!r}, h={self.h!r})"

    def _jet(self, other):
        """``other`` if it is an array jet of a broadcastable shape, None for
        a constant."""
        if isinstance(other, ArrayJet):
            if other.nvars != self.nvars:
                raise InvalidArgumentError(
                    f"jet variable counts differ: {self.nvars} vs {other.nvars}")
            if other.shape != self.shape:
                try:
                    np.broadcast_shapes(self.shape, other.shape)
                except ValueError:
                    raise InvalidArgumentError(
                        f"array jet shapes differ: {self.shape} vs {other.shape}") from None
            return other
        if isinstance(other, Jet):
            raise InvalidArgumentError("an array jet does not combine with a Jet")
        return None

    def _up(self, n):
        """The derivative arrays as those of a field of n axes: length-1 axes
        after the derivative axes, which numpy would align with field axes."""
        new = (None,) * (n - self.ndim)
        if not new:
            return self.g, self.h
        return (self.g[(slice(None),) + new],
                None if self.h is None else self.h[(slice(None),) * 2 + new])

    def _grown(self, shape):
        """The derivative arrays broadcast to the value shape ``shape``."""
        if shape == self.shape:
            return self.g, self.h
        g, h = self._up(len(shape))
        d = (self.nvars,)
        return (np.broadcast_to(g, d + shape),
                None if h is None else np.broadcast_to(h, d + d + shape))

    def _pair(self, b):
        """The derivative arrays of self and the array jet b at their common rank."""
        n = max(self.ndim, b.ndim)
        return self._up(n) + b._up(n)

    def __add__(self, other):
        b = self._jet(other)
        if b is None:
            v = self.v + _const(other)
            return ArrayJet(v, *self._grown(np.shape(v)))
        ag, ah, bg, bh = self._pair(b)
        h = None if ah is None or bh is None else ah + bh
        return ArrayJet(self.v + b.v, ag + bg, h)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return ArrayJet(-self.v, -self.g, None if self.h is None else -self.h)

    def __mul__(self, other):
        b = self._jet(other)
        if b is None:
            c = _const(other)
            g, h = self._up(np.ndim(c))
            return ArrayJet(self.v * c, g * c, None if h is None else h * c)
        av, bv = self.v, b.v
        ag, ah, bg, bh = self._pair(b)
        h = None
        if ah is not None and bh is not None:
            S = _outer(ag, bg)
            h = ah * bv
            h += S
            h += _T(S)
            h += av * bh
        return ArrayJet(av * bv, ag * bv + av * bg, h)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        b = self._jet(other)
        if b is None:
            c = _const(other)
            if np.any(c == 0.0):
                raise SingularEvaluationError("division by zero scalar")
            g, h = self._up(np.ndim(c))
            return ArrayJet(self.v / c, g / c, None if h is None else h / c)
        _nonzero(b.v)
        bv = b.v
        ag, ah, bg, bh = self._pair(b)
        q = self.v / bv
        dq = (ag - q * bg) / bv
        h = None
        if ah is not None and bh is not None:
            S = _outer(dq, bg)
            h = (ah - q * bh - S - _T(S)) / bv
        return ArrayJet(q, dq, h)

    def __rtruediv__(self, other):
        # other is a constant
        _nonzero(self.v)
        q = _const(other) / self.v
        w = q / self.v
        g, h = self._up(np.ndim(q))
        dq = -w * g
        if h is not None:
            S = _outer(dq, g)
            h = (-q * h - S - _T(S)) / self.v
        return ArrayJet(q, dq, h)

    def _reciprocal(self):
        _nonzero(self.v)
        q = 1.0 / self.v
        q2 = q * q
        g = -self.g * q2
        h = None
        if self.h is not None:
            q3 = q2 * q
            h = _outer(2.0 * self.g, self.g) * q3 - self.h * q2
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
        if np.any(bad):
            raise SingularEvaluationError(
                f"non-integer power of non-positive value {np.asarray(self.v)[bad][0]}")
        f0 = _finite_power(self.v, e)
        f1 = e * _finite_power(self.v, e - 1.0)
        f2 = e * (e - 1.0) * _finite_power(self.v, e - 2.0)
        return self._compose(f0, f1, f2)

    def _compose(self, f0, f1, f2):
        g = f1 * self.g
        h = None
        if self.h is not None:
            h = f1 * self.h + _outer(f2 * self.g, self.g)
        return ArrayJet(f0, g, h)

    def __float__(self):
        raise TypeError("implicit ArrayJet->float conversion is a bug; use value_of()")

    # ------------------------------------------------------------------
    # the shape of the field; the derivative axes stay first

    def _parts(self, fn):
        """``fn(array, k)`` on the value (k = 0), gradient (1) and Hessian (2)
        arrays."""
        return ArrayJet(fn(self.v, 0), fn(self.g, 1),
                        None if self.h is None else fn(self.h, 2))

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if any(isinstance(i, (list, np.ndarray)) for i in key):
            # numpy may move advanced indices to the front: index with the derivative axes last
            return self._parts(lambda x, k: np.moveaxis(np.moveaxis(x, range(k), range(-k, 0))[
                key + (slice(None),) * k], range(-k, 0), range(k)))
        return self._parts(lambda x, k: x[(slice(None),) * k + key])

    def transpose(self, *axes):
        n = self.ndim
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(n)))
        return self._parts(lambda x, k: x.transpose(tuple(range(k)) + tuple(a + k for a in axes)))

    @property
    def mT(self):
        """The last two field axes swapped, as numpy's ``mT``."""
        n = self.ndim
        return self.transpose(*range(n - 2), n - 1, n - 2)

    def diagonal(self, offset=0, axis1=0, axis2=1):
        """numpy's diagonal: the diagonal axis comes last of the field's."""
        a1, a2 = (a % self.ndim for a in (axis1, axis2))
        return self._parts(lambda x, k: np.diagonal(x, offset, a1 + k, a2 + k))

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)


_JETS = (Jet, ArrayJet)


def _const(x):
    """A constant operand of an array jet, as a float or a float array."""
    return x if isinstance(x, (int, float)) else np.asarray(x, dtype=float)


def _outer(a, b):
    """a_i b_j at every entry, for gradient arrays."""
    return a[:, None] * b[None]


def _T(S):
    """S_ji at every entry: b_i a_j for S = _outer(a, b), the same products."""
    return np.swapaxes(S, 0, 1)


def _nonzero(v):
    zero = np.argwhere(v == 0.0)
    if len(zero):
        raise SingularEvaluationError("division by jet with zero value", at=tuple(zero[0]))


def _finite_power(v, e):
    """v ** e at every entry; an overflow raises as a float power does."""
    with np.errstate(over="ignore"):
        return _no_overflow(v ** e, "(34, 'Numerical result out of range')")


def _no_overflow(v, message):
    """``v``; with an infinite entry, the OverflowError that ``math``
    raises, carrying the index of the first as ``at``."""
    inf = np.argwhere(np.isinf(v))
    if len(inf):
        exc = OverflowError(message)
        exc.at = tuple(inf[0])
        raise exc
    return v


def _matmul(a, b):
    """``a @ b`` as numpy's: operands of more than two axes are stacks of
    matrices, and their leading axes broadcast.  A vector is a one-row (a)
    or one-column (b) matrix whose axis is dropped from the product."""
    a, b = (x if isinstance(x, ArrayJet) else np.asarray(x, dtype=float) for x in (a, b))
    na, nb = a.ndim, b.ndim
    if na == 0 or nb == 0:
        raise InvalidArgumentError(f"jet matmul of {na}- and {nb}-axis operands")
    a, b = a[None] if na == 1 else a, b[:, None] if nb == 1 else b
    n = max(a.ndim, b.ndim)
    P = _product(*(ArrayJet(x.v, *x._up(n)) if isinstance(x, ArrayJet) and x.ndim < n else x
                   for x in (a, b)),
                 lambda x, tx, y, ty: np.matmul(x[:, None] if tx and ty else x, y))
    if na > 1 and nb > 1:
        return P
    return P[..., 0 if na == 1 else slice(None), 0 if nb == 1 else slice(None)]


def _product(a, b, mul):
    """The bilinear product ``mul`` of two array jets, or of an array jet and a
    float array, by the product rule; ``mul(x, tx, y, ty)`` multiplies two parts
    labelled by their derivative axes ("", "x", "xy"; "y" for b's in a_x b_y)."""
    ja, jb = isinstance(a, ArrayJet), isinstance(b, ArrayJet)
    if ja and jb and a.nvars != b.nvars:
        raise InvalidArgumentError(f"jet variable counts differ: {a.nvars} vs {b.nvars}")
    av, bv = _value(a), _value(b)
    terms = ([mul(a.g, "x", bv, "")] if ja else []) + ([mul(av, "", b.g, "x")] if jb else [])
    g = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    h = None
    if (not ja or a.h is not None) and (not jb or b.h is not None):
        h = mul(a.h, "xy", bv, "") if ja else mul(av, "", b.h, "xy")
        if ja and jb:                     # in place: every term has the product's shape
            S = mul(a.g, "x", b.g, "y")
            h += S
            h += _T(S)
            h += mul(av, "", b.h, "xy")
    return ArrayJet(mul(av, "", bv, ""), g, h)


def _value(x):
    return x.v if isinstance(x, ArrayJet) else _const(x)


def einsum(subscripts, *operands):
    """numpy's ``einsum`` of one array jet, or of two operands (array jets
    or float arrays) by the product rule.  The subscripts name the output
    after ``->``, may write batch axes as ``...`` and leave the letters x
    and y to the derivative axes."""
    ins, out = subscripts.split("->")
    if len(operands) == 1:
        return operands[0]._parts(
            lambda x, k: np.einsum(f"{'xy'[:k]}{ins}->{'xy'[:k]}{out}", x))
    sa, sb = ins.split(",")
    return _product(*operands, lambda x, tx, y, ty: np.einsum(
        f"{tx}{sa},{ty}{sb}->{tx}{ty}{out}", x, y))


def inverse(A, V):
    """The array jet of the inverse of the array jet A (square matrices) from
    its value V: with K_x = V d_x A, d_x V = -K_x V and
    d_xy V = (K_x K_y + K_y K_x) V - V d_xy A V (Giles 2008)."""
    K = V @ A.g
    G = -(K @ V)
    if A.h is None:
        return ArrayJet(V, G)
    KK = K[:, None] @ K
    return ArrayJet(V, G, (KK + _T(KK)) @ V - V @ A.h @ V)


def broadcast_to(F, shape):
    """The array jet F broadcast to the field shape ``shape``, as views."""
    if F.shape == shape:
        return F
    return ArrayJet(np.broadcast_to(F.v, shape), *F._grown(shape))


def concatenate(fields, axis=0):
    """numpy's concatenate of array jets, along a field axis ``axis`` >= 0."""
    order2 = all(x.h is not None for x in fields)
    return ArrayJet(np.concatenate([x.v for x in fields], axis=axis),
                    np.concatenate([x.g for x in fields], axis=axis + 1),
                    np.concatenate([x.h for x in fields], axis=axis + 2) if order2 else None)


def value_of(x):
    """Float value of a scalar, jet or plain number (the value array of an
    array jet)."""
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
        zh = np.zeros((n, n, N)) if order == 2 else None
        return [ArrayJet(P[:, i].copy(), np.broadcast_to(eye[i][:, None], (n, N)), zh)
                for i in range(n)]
    pt = [float(c) for c in point]
    if not all(math.isfinite(c) for c in pt):
        raise InvalidArgumentError("seed point must be finite")
    n = len(pt)
    zh = tuple((0.0,) * n for _ in range(n)) if order == 2 else None
    return [Jet(c, tuple(1.0 if j == i else 0.0 for j in range(n)), zh)
            for i, c in enumerate(pt)]


def order1(X):
    """The array jet X truncated to order 1."""
    return ArrayJet(X.v, X.g, None) if X.h is not None else X


def dshift(X):
    """Every partial derivative of the order-2 array jet X, as an order-1
    array jet with the derivative index first:
    ``dshift(X)[m][...] = d_m X[...]``."""
    if X.h is None:
        raise SingularEvaluationError("second-order jet required for field derivative")
    return ArrayJet(X.g, np.swapaxes(X.h, 0, 1), None)


def _scalars(J):
    """(shape, flat entries, node shape) of an array or nested list of
    scalars; the node shape is that of the first array jet among them."""
    A = np.asarray(J, dtype=object)
    flat = list(A.flat)
    lead = next((x.shape for x in flat if isinstance(x, ArrayJet)), ())
    return A.shape, flat, lead


def _gather(flat, k, lead, d):
    """Part k (0 value, 1 gradient, 2 Hessian) of every scalar of ``flat``
    in d variables, stacked on one axis after the derivative and node axes:
    shape (d,) * k + lead + (len(flat),).  Floats are constants."""
    if not lead:
        if k == 0:
            return np.array([value_of(x) for x in flat], dtype=float)
        zero = np.zeros((d,) * k)
        out = np.array([(x.v, x.g, x.h)[k] if isinstance(x, _JETS) else zero
                        for x in flat], dtype=float)
        return np.moveaxis(out.reshape((len(flat),) + (d,) * k), 0, -1)
    out = np.zeros((d,) * k + lead + (len(flat),))
    for i, x in enumerate(flat):
        if isinstance(x, ArrayJet):
            out[..., i] = (x.v, x.g, x.h)[k]
        elif k == 0:
            out[..., i] = x
    return out


def values(J):
    """The float array of an array jet (its value), or of an array or
    nested list of scalars (floats and jets).  With array jets among the
    scalars their node axis comes first, and a float is the same at every
    node."""
    if isinstance(J, ArrayJet):
        return J.v
    if isinstance(J, np.ndarray) and J.dtype == float:
        return J
    shape, flat, lead = _scalars(J)
    return _gather(flat, 0, lead, 0).reshape(lead + shape)


def gradients(J, d):
    """The gradient array of an array jet, or of an array or nested list of
    scalars in d variables (read through :func:`dense`), the derivative
    index first: ``gradients(J, d)[m][...] = d_m J[...]``; a node axis comes
    next.  Plain floats have zero gradient.  The array is C-contiguous, as
    if built from nested lists in that index order, so numpy reductions over
    it add in the same order as over such an array."""
    return np.ascontiguousarray(dense(J, d).g)


def dense(X, d):
    """The array jet of an array or nested list of scalars in d variables
    (an array jet passes through).  With array jets among the scalars their
    node axis comes first, as in :func:`values`.  It has order 2 unless an
    order-1 jet is among the scalars; floats are constants."""
    if isinstance(X, ArrayJet):
        return X
    shape, flat, lead = _scalars(X)
    full = lead + shape
    order2 = all(x.h is not None for x in flat if isinstance(x, _JETS))
    return ArrayJet(_gather(flat, 0, lead, d).reshape(full),
                    _gather(flat, 1, lead, d).reshape((d,) + full),
                    _gather(flat, 2, lead, d).reshape((d, d) + full) if order2 else None)


def as_field(X, xs):
    """The field of ``X`` (an array jet, or an array or nested list of
    scalars) at the seeds ``xs`` it was evaluated at: the float array of its
    values at a float point, an array jet of X's shape at scalar seeds, and
    at N node seeds an array jet with the node axis first, of the seeds'
    order.  Entries that are the same at every node are broadcast over it
    as views."""
    x = xs[0]
    if not isinstance(x, _JETS):
        return values(X)
    F = dense(X, x.nvars)
    if x.h is None:
        F = order1(F)
    if isinstance(x, ArrayJet) and not isinstance(X, ArrayJet):
        F = broadcast_to(F, x.shape + np.shape(np.asarray(X, dtype=object)))
    return F


def scatter(mask, F):
    """The field F, given at the nodes where the boolean node array ``mask``
    holds, over all of mask's nodes: zero at the others."""
    def part(x, k):
        out = np.zeros(x.shape[:k] + mask.shape + x.shape[k + 1:])
        out[(slice(None),) * k + (mask,)] = x
        return out

    return F._parts(part)


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
            if overflows:
                _no_overflow(parts[0], "math range error")
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
    """Raise unless the value of x is positive (at every entry)."""
    v = value_of(x)
    bad = np.asarray(v <= 0.0)
    if bad.any():
        raise SingularEvaluationError(f"{what} of non-positive value {np.asarray(v)[bad][0]}")
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
    """NaN policy: abort evaluation on any non-finite value (at any node);
    at node seeds the error names the first node that has one (see
    :func:`~mixedcurv.errors.member_point`)."""
    v = value_of(x)
    if not (np.isfinite(v).all() if isinstance(x, ArrayJet) else math.isfinite(v)):
        at = np.argwhere(~np.isfinite(v))[0] if isinstance(x, ArrayJet) else None
        raise SingularEvaluationError("non-finite intermediate value",
                                      point=member_point(point, at))
    return x
