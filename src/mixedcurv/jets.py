"""Forward-mode automatic differentiation on truncated Taylor scalars ("jets").

A :class:`Jet` stores a value, a gradient over the active chart variables and,
at order 2, a symmetric Hessian.  Coefficients may themselves be jets, which
nests the construction (hyper-dual style) and yields third derivatives; depth
is capped at 3 because no formula in the engine needs more.

Plain ``int``/``float`` scalars mix freely with jets, so numeric code written
with ordinary operators runs unchanged on either kind.  Binary operations
between jets of different order truncate to the lower order.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError, JetDepthError, SingularEvaluationError

_MAX_DEPTH = 3


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

    @property
    def order(self):
        return 1 if self.h is None else 2

    def __repr__(self):
        return f"Jet(v={self.v!r}, g={self.g!r}, h={self.h!r})"

    def _zero_like(self):
        n = self.nvars
        h = None if self.h is None else tuple((0.0,) * n for _ in range(n))
        return Jet(0.0, (0.0,) * n, h)

    # ------------------------------------------------------------------
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
        if not isinstance(other, Jet):
            if value_of(other) == 0.0:
                raise SingularEvaluationError("division by zero scalar")
            n = self.nvars
            h = None
            if self.h is not None:
                h = tuple(tuple(x / other for x in row) for row in self.h)
            return Jet(self.v / other, tuple(x / other for x in self.g), h)
        if value_of(other.v) == 0.0:
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
        if value_of(self.v) == 0.0:
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
        if value_of(self.v) == 0.0:
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
        if value_of(self.v) <= 0.0:
            raise SingularEvaluationError(
                f"non-integer power of non-positive value {value_of(self.v)}")
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


def value_of(x):
    """Innermost float value of a (possibly nested) scalar."""
    while isinstance(x, Jet):
        x = x.v
    return float(x)


def jsum(items):
    """Left fold of ``+`` from 0.0, for jets and floats alike.

    Unlike the builtin ``sum`` (which compensates float sums from Python 3.12
    on), the result does not depend on the interpreter version."""
    acc = 0.0
    for x in items:
        acc = acc + x
    return acc


def scalar_kind(x):
    """Tag describing a scalar: 'real', 'jet1', 'jet2', or 'nested(<inner>)'."""
    if not isinstance(x, Jet):
        return "real"
    inner = scalar_kind(x.v)
    if inner == "real":
        return "jet1" if x.h is None else "jet2"
    return f"nested({inner})"


def depth(x):
    d = 0
    while isinstance(x, Jet):
        d += 1
        x = x.v
    return d


def seed(point, order):
    """One jet per coordinate: value ``point[i]``, gradient the i-th basis vector."""
    if order not in (1, 2):
        raise InvalidArgumentError(f"jet order must be 1 or 2, got {order}")
    pt = list(point)
    for c in pt:
        if not math.isfinite(value_of(c)):
            raise InvalidArgumentError("seed point must be finite")
    n = len(pt)
    zh = tuple((0.0,) * n for _ in range(n)) if order == 2 else None
    out = []
    for i, c in enumerate(pt):
        g = tuple(1.0 if j == i else 0.0 for j in range(n))
        out.append(Jet(c, g, zh))
    return out


def nest(a):
    """Promote ``a`` so its coefficients are themselves differentiated.

    Evaluating a function on nested seeds exposes one extra derivative order
    (third derivatives when ``a`` has order 2).
    """
    if not isinstance(a, Jet):
        raise InvalidArgumentError("nest() expects a Jet")
    if depth(a) + 1 > _MAX_DEPTH:
        raise JetDepthError(f"jet nesting depth would exceed {_MAX_DEPTH}")
    return Jet(a, a.g, a.h)


def nested_seed(point, inner_order=2, outer_order=1):
    """Seeds whose evaluation carries derivatives of total order inner+outer."""
    if outer_order != 1:
        raise InvalidArgumentError("only one extra nesting level is supported")
    return [nest(a) for a in seed(point, inner_order)]


# ----------------------------------------------------------------------
# Elementary functions, generic over float / Jet / nested Jet.

def _lift(x, ffloat, d0, d1, d2):
    if isinstance(x, Jet):
        v = x.v
        return x._compose(d0(v), d1(v), d2(v))
    return ffloat(x)


def jsin(x):
    return _lift(x, math.sin, jsin, jcos, lambda v: -jsin(v))


def jcos(x):
    return _lift(x, math.cos, jcos, lambda v: -jsin(v), lambda v: -jcos(v))


def jtan(x):
    if isinstance(x, Jet):
        t = jtan(x.v)
        sec2 = 1.0 + t * t
        return x._compose(t, sec2, 2.0 * t * sec2)
    return math.tan(x)


def jexp(x):
    return _lift(x, math.exp, jexp, jexp, jexp)


def jlog(x):
    if isinstance(x, Jet):
        if value_of(x.v) <= 0.0:
            raise SingularEvaluationError(f"log of non-positive value {value_of(x.v)}")
        return x._compose(jlog(x.v), 1.0 / x.v, -1.0 / (x.v * x.v))
    if x <= 0.0:
        raise SingularEvaluationError(f"log of non-positive value {x}")
    return math.log(x)


def jsqrt(x):
    if isinstance(x, Jet):
        if value_of(x.v) <= 0.0:
            raise SingularEvaluationError(f"sqrt of non-positive value {value_of(x.v)}")
        s = jsqrt(x.v)
        return x._compose(s, 0.5 / s, -0.25 / (s * x.v))
    if x < 0.0:
        raise SingularEvaluationError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def jsinh(x):
    return _lift(x, math.sinh, jsinh, jcosh, jsinh)


def jcosh(x):
    return _lift(x, math.cosh, jcosh, jsinh, jcosh)


def jtanh(x):
    if isinstance(x, Jet):
        t = jtanh(x.v)
        sech2 = 1.0 - t * t
        return x._compose(t, sech2, -2.0 * t * sech2)
    return math.tanh(x)


def jatan(x):
    if isinstance(x, Jet):
        v = x.v
        w = 1.0 / (1.0 + v * v)
        return x._compose(jatan(v), w, -2.0 * v * w * w)
    return math.atan(x)


def jpow(a, b):
    """Power with jet/float dispatch; value bits agree across scalar kinds."""
    if isinstance(b, Jet):
        return jexp(b * jlog(a))
    if float(b) == int(b):
        if isinstance(a, Jet):
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
    if isinstance(a, Jet):
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


def arith(a, b, op):
    """Named binary operation, mirroring the expression language operators."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "pow":
        return jpow(a, b)
    raise InvalidArgumentError(f"unknown operation {op!r}")


def check_finite(x, point=None):
    """NaN policy: abort evaluation on any non-finite value."""
    v = value_of(x)
    if not math.isfinite(v):
        raise SingularEvaluationError("non-finite intermediate value", point=point)
    return x
