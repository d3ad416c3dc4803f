"""Forward-mode automatic differentiation on truncated Taylor scalars ("jets").

A :class:`Jet` stores a value, a gradient over the active chart variables
and, at order 2, a symmetric Hessian, all as plain floats.  Every
quantity of the engine is a first or second chart derivative of the metric
and the distribution, so order 2 is the highest it seeds.

Plain ``int``/``float`` scalars mix freely with jets, so numeric code written
with ordinary operators runs unchanged on either kind.  Binary operations
between jets of different order truncate to the lower order.

This module is the only one that knows a jet's layout.  Other modules build
jets with :func:`seed`, :func:`as_field`, :func:`dense`, :func:`order1`
and :func:`dshift`, and read them back through :func:`value_of`,
:func:`values` (the float array) and :func:`gradients` (the gradient array,
derivative index first).

A jet tensor field is one :class:`ArrayJet` (Taylor arithmetic in the vector
forward mode): its value, gradient and Hessian arrays carry the tensor's
shape, with the derivative axes last.  The field algebra is numpy's (``@``,
:func:`tensordot`, transposes, indexing, ``diagonal``, ``sum``,
broadcasting ring operations and elementary functions) with the product
rule.  :func:`order1` and :func:`dshift` act on a field as a whole and on an
array or nested list of scalars entry by entry.

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
    """A jet tensor field: value v of shape S, gradient g of shape S + (d,)
    and, at order 2, Hessian h of shape S + (d, d), else None.

    S is the shape of a tensor at one point, or a node axis (N,) for one
    scalar at N nodes.  Ring operations, powers and elementary functions act
    entry by entry by :class:`Jet`'s formulas in the same order and
    broadcast between shapes as numpy does; a float or float array operand
    is a constant.  ``@``, :func:`tensordot`, :meth:`transpose`, indexing,
    :meth:`diagonal` and :meth:`sum` act as numpy's on the value, with the
    product rule on the derivatives.  It raises
    :class:`SingularEvaluationError` when :class:`Jet` would at any entry; an
    elementary function whose value overflows raises ``OverflowError`` as
    ``math`` does.  The arrays are never written in place, so jets may share
    them.
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
        return self.g.shape[-1]

    @property
    def shape(self):
        return np.shape(self.v)

    @property
    def ndim(self):
        return np.ndim(self.v)

    @property
    def size(self):
        return np.size(self.v)

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

    def _grown(self, shape):
        """The derivative arrays broadcast to the value shape ``shape``."""
        if shape == self.shape:
            return self.g, self.h
        d = (self.nvars,)
        return (np.broadcast_to(self.g, shape + d),
                None if self.h is None else np.broadcast_to(self.h, shape + d + d))

    def __add__(self, other):
        b = self._jet(other)
        if b is None:
            v = self.v + _const(other)
            return ArrayJet(v, *self._grown(np.shape(v)))
        h = None if self.h is None or b.h is None else self.h + b.h
        return ArrayJet(self.v + b.v, self.g + b.g, h)

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
            return ArrayJet(self.v * c, self.g * _g(c),
                            None if self.h is None else self.h * _h(c))
        av, ag, bv, bg = _g(self.v), self.g, _g(b.v), b.g
        h = None
        if self.h is not None and b.h is not None:
            S = _outer(ag, bg)
            h = self.h * _g(bv) + S + _T(S) + _g(av) * b.h
        return ArrayJet(self.v * b.v, ag * bv + av * bg, h)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        b = self._jet(other)
        if b is None:
            c = _const(other)
            if np.any(c == 0.0):
                raise SingularEvaluationError("division by zero scalar")
            return ArrayJet(self.v / c, self.g / _g(c),
                            None if self.h is None else self.h / _h(c))
        _nonzero(b.v)
        bv, bg = b.v, b.g
        q = self.v / bv
        dq = (self.g - _g(q) * bg) / _g(bv)
        h = None
        if self.h is not None and b.h is not None:
            S = _outer(dq, bg)
            h = (self.h - _h(q) * b.h - S - _T(S)) / _h(bv)
        return ArrayJet(q, dq, h)

    def __rtruediv__(self, other):
        # other is a constant
        _nonzero(self.v)
        q = _const(other) / self.v
        w = q / self.v
        dq = -_g(w) * self.g
        h = None
        if self.h is not None:
            S = _outer(dq, self.g)
            h = (-_h(q) * self.h - S - _T(S)) / _h(self.v)
        return ArrayJet(q, dq, h)

    def _reciprocal(self):
        _nonzero(self.v)
        q = 1.0 / self.v
        q2 = q * q
        g = -self.g * _g(q2)
        h = None
        if self.h is not None:
            q3 = q2 * q
            h = _outer(2.0 * self.g, self.g) * _h(q3) - self.h * _h(q2)
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

    def __rpow__(self, base):
        return jexp(self * math.log(base))

    def _compose(self, f0, f1, f2):
        g = _g(f1) * self.g
        h = None
        if self.h is not None:
            h = _h(f1) * self.h + _outer(_g(f2) * self.g, self.g)
        return ArrayJet(f0, g, h)

    def __float__(self):
        raise TypeError("implicit ArrayJet->float conversion is a bug; use value_of()")

    # ------------------------------------------------------------------
    # the shape of the field; the derivative axes stay last

    def _parts(self, fn, shift=0):
        """``fn(array, k)`` on the value (k = 0), gradient (1) and Hessian (2)
        arrays; ``shift`` moves each result's last k axes back in front of
        the derivative axes (for numpy functions that append an axis)."""
        def part(x, k):
            out = fn(x, k)
            if shift and k:
                out = np.moveaxis(out, list(range(-shift, 0)),
                                  list(range(-shift - k, -k)))
            return out
        return ArrayJet(part(self.v, 0), part(self.g, 1),
                        None if self.h is None else part(self.h, 2))

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return self._parts(lambda x, k: x[key + (slice(None),) * k])

    def __iter__(self):
        return (self[i] for i in range(self.shape[0]))

    def transpose(self, *axes):
        n = self.ndim
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(n)))
        return self._parts(lambda x, k: x.transpose(axes + tuple(range(n, n + k))))

    @property
    def T(self):
        return self.transpose()

    @property
    def mT(self):
        """The last two field axes swapped, as numpy's ``mT``."""
        n = self.ndim
        return self.transpose(*range(n - 2), n - 1, n - 2)

    def diagonal(self, offset=0, axis1=0, axis2=1):
        """numpy's diagonal: the diagonal axis comes last of the field's."""
        a1, a2 = (a % self.ndim for a in (axis1, axis2))
        return self._parts(lambda x, k: np.diagonal(x, offset, a1, a2), shift=1)

    def sum(self, axis=None):
        axes = tuple(range(self.ndim)) if axis is None else tuple(
            a % self.ndim for a in np.atleast_1d(axis))
        return self._parts(lambda x, k: x.sum(axis=axes))

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)


_JETS = (Jet, ArrayJet)


def _const(x):
    """A constant operand of an array jet, as a float or a float array."""
    return x if isinstance(x, (int, float)) else np.asarray(x, dtype=float)


def _g(x):
    """``x`` with an axis appended, to broadcast against gradients."""
    return x[..., None] if isinstance(x, np.ndarray) or np.ndim(x) else x


def _h(x):
    """``x`` with two axes appended, to broadcast against Hessians."""
    return x[..., None, None] if isinstance(x, np.ndarray) or np.ndim(x) else x


def _outer(a, b):
    """a_i b_j at every entry, for gradient arrays."""
    return a[..., :, None] * b[..., None, :]


def _T(S):
    """S_ji at every entry: b_i a_j for S = _outer(a, b), the same products."""
    return np.swapaxes(S, -1, -2)


def _nonzero(v):
    if np.any(v == 0.0):
        raise SingularEvaluationError("division by jet with zero value")


def _finite_power(v, e):
    """v ** e at every entry; an overflow raises as a float power does."""
    with np.errstate(over="ignore"):
        out = v ** e
    if np.isinf(out).any():
        raise OverflowError("(34, 'Numerical result out of range')")
    return out


def tensordot(a, b, axes=2):
    """numpy's tensordot of two array jets, or of an array jet and a float
    array, by the product rule."""
    na, nb = np.ndim(_value(a)), np.ndim(_value(b))
    if isinstance(axes, int):
        ia, ib = list(range(na - axes, na)), list(range(axes))
    else:
        ia, ib = ([x] if isinstance(x, int) else list(x) for x in axes)
    # einsum subscripts: field axes a..w, a contracted axis shares a's letter
    sa = [chr(97 + i) for i in range(na)]
    sb = [chr(97 + na + j) for j in range(nb)]
    for i, j in zip(ia, ib):
        sb[j % nb] = sa[i % na]
    sa, sb = "".join(sa), "".join(sb)
    free = "".join(c for c in sa if c not in sb) + "".join(c for c in sb if c not in sa)
    return _product(a, b, sa, sb, free)


def _matmul(a, b):
    """``a @ b`` as numpy's: operands of more than two axes are stacks of
    matrices, and their leading axes broadcast."""
    na, nb = np.ndim(_value(a)), np.ndim(_value(b))
    if na == 0 or nb == 0:
        raise InvalidArgumentError(f"jet matmul of {na}- and {nb}-axis operands")
    if nb <= 2:
        return tensordot(a, b, ([na - 1], [0]))
    return _product(a, b, "...ij" if na > 1 else "j", "...jk", "...ik" if na > 1 else "...k")


def _product(a, b, sa, sb, out):
    """The product ``einsum(sa + "," + sb + "->" + out)`` of two array jets,
    or of an array jet and a float array, by the product rule; x and y label
    the derivative axes."""
    ja, jb = isinstance(a, ArrayJet), isinstance(b, ArrayJet)
    if ja and jb and a.nvars != b.nvars:
        raise InvalidArgumentError(f"jet variable counts differ: {a.nvars} vs {b.nvars}")
    av, bv = _value(a), _value(b)

    def dot(x, tx, y, ty):
        return np.einsum(f"{sa}{tx},{sb}{ty}->{out}{tx}{ty}", x, y)

    terms = ([dot(a.g, "x", bv, "")] if ja else []) + ([dot(av, "", b.g, "x")] if jb else [])
    g = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    h = None
    if (not ja or a.h is not None) and (not jb or b.h is not None):
        h = dot(a.h, "xy", bv, "") if ja else dot(av, "", b.h, "xy")
        if ja and jb:
            S = dot(a.g, "x", b.g, "y")
            h = h + S + _T(S) + dot(av, "", b.h, "xy")
    return ArrayJet(dot(av, "", bv, ""), g, h)


def _value(x):
    return x.v if isinstance(x, ArrayJet) else _const(x)


def concatenate(fields, axis=0):
    """numpy's concatenate of array jets, along a field axis ``axis`` >= 0."""
    order2 = all(x.h is not None for x in fields)
    return ArrayJet(np.concatenate([x.v for x in fields], axis=axis),
                    np.concatenate([x.g for x in fields], axis=axis),
                    np.concatenate([x.h for x in fields], axis=axis) if order2 else None)


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


def _order1(x):
    if isinstance(x, Jet) and x.h is not None:
        return Jet(x.v, x.g, None)
    if isinstance(x, ArrayJet) and x.h is not None:
        return ArrayJet(x.v, x.g, None)
    return x


_order1_entrywise = np.frompyfunc(_order1, 1, 1)


def order1(X):
    """Truncate to order 1; entrywise on an array or nested list, which
    comes back as an object array."""
    if isinstance(X, (list, tuple, np.ndarray)):
        return _order1_entrywise(np.asarray(X, dtype=object))
    return _order1(X)


def _partials(x, d):
    if isinstance(x, _JETS):
        if x.h is None:
            raise SingularEvaluationError("second-order jet required for field derivative")
        if isinstance(x, ArrayJet):
            return [ArrayJet(x.g[..., m], x.h[..., m], None) for m in range(d)]
        return [Jet(x.g[m], x.h[m], None) for m in range(d)]
    return [0.0] * d


def dshift(X, d):
    """Every partial derivative of order-2 jets in d variables, as order-1
    jets with the derivative index first: ``dshift(X, d)[m][...] = d_m
    X[...]``, zero for plain floats.  An array jet gives an array jet; an
    array or nested list of scalars gives an object array."""
    if isinstance(X, ArrayJet):
        if X.h is None:
            raise SingularEvaluationError("second-order jet required for field derivative")
        return ArrayJet(np.moveaxis(X.g, -1, 0), np.moveaxis(X.h, -2, 0), None)
    A = np.asarray(X, dtype=object)
    D = np.empty((A.size, d), dtype=object)
    D[...] = [_partials(x, d) for x in A.flat]
    return np.ascontiguousarray(D.T).reshape((d,) + A.shape)


def _scalars(J):
    """(shape, flat entries, node shape) of an array or nested list of
    scalars; the node shape is that of the first array jet among them."""
    A = np.asarray(J, dtype=object)
    flat = list(A.flat)
    lead = next((x.shape for x in flat if isinstance(x, ArrayJet)), ())
    return A.shape, flat, lead


def _gather(flat, k, lead, tail):
    """Part k (0 value, 1 gradient, 2 Hessian) of every scalar of ``flat``,
    stacked on one axis after the node axes: shape lead + (len(flat),) +
    tail.  Floats are constants."""
    if not lead:
        if k == 0:
            return np.array([value_of(x) for x in flat], dtype=float)
        zero = np.zeros(tail)
        return np.array([(x.v, x.g, x.h)[k] if isinstance(x, _JETS) else zero
                         for x in flat], dtype=float).reshape((len(flat),) + tail)
    out = np.zeros(lead + (len(flat),) + tail)
    at = (slice(None),) * len(lead)
    for i, x in enumerate(flat):
        if isinstance(x, ArrayJet):
            out[at + (i,)] = (x.v, x.g, x.h)[k]
        elif k == 0:
            out[at + (i,)] = x
    return out


def values(J):
    """The float array of an array jet (its value), or of an array or
    nested list of scalars (floats and jets).  With array jets among the
    scalars their node axis comes first, and a float is the same at every
    node."""
    if isinstance(J, ArrayJet):
        return J.v
    shape, flat, lead = _scalars(J)
    return _gather(flat, 0, lead, ()).reshape(lead + shape)


def gradients(J, d):
    """The gradient array of an array jet, or of an array or nested list of
    scalars in d variables (read through :func:`dense`), the derivative
    index first: ``gradients(J, d)[m][...] = d_m J[...]``; a node axis comes
    next.  Plain floats have zero gradient.  The array is C-contiguous, as
    if built from nested lists in that index order, so numpy reductions over
    it add in the same order as over such an array."""
    return np.ascontiguousarray(np.moveaxis(dense(J, d).g, -1, 0))


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
    return ArrayJet(_gather(flat, 0, lead, ()).reshape(full),
                    _gather(flat, 1, lead, (d,)).reshape(full + (d,)),
                    _gather(flat, 2, lead, (d, d)).reshape(full + (d, d)) if order2 else None)


def as_field(X, xs):
    """The field of ``X`` (an array jet, or an array or nested list of
    scalars) at the seeds ``xs`` it was evaluated at: the float array of its
    values at a float point, an array jet of X's shape at scalar seeds, and
    at N node seeds an array jet with the node axis first.  Entries that are
    the same at every node are broadcast over it as views."""
    x = xs[0]
    if not isinstance(x, _JETS):
        return values(X)
    F = dense(X, x.nvars)
    if isinstance(x, ArrayJet) and not isinstance(X, ArrayJet):
        full = x.shape + np.shape(np.asarray(X, dtype=object))
        if F.shape != full:
            F = ArrayJet(np.broadcast_to(F.v, full), *F._grown(full))
    return F


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
    """NaN policy: abort evaluation on any non-finite value (at any node)."""
    v = value_of(x)
    if not (np.isfinite(v).all() if isinstance(x, ArrayJet) else math.isfinite(v)):
        raise SingularEvaluationError("non-finite intermediate value", point=point)
    return x
