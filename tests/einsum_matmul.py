"""The einsum product rule of ``@``: the reference of ``jets``' matmul terms.

``jets`` takes every term of ``a @ b`` (the value, a_x b, a b_x, a_xy b,
a_x b_y and a b_xy) as one ``np.matmul`` over array jets whose derivative
axes come first.  This module keeps the form it replaced: each term is one
``np.einsum`` with the derivative axes last, written once for numpy's
matmul rules (stacks of matrices, broadcast leading axes, a vector operand
on either side).  It reads the parts of an array jet or a float array and
returns the product's (value, gradient, Hessian) arrays in the array jets'
layout, derivative axes first, with the Hessian None unless both operands
have one.
"""

import numpy as np

from mixedcurv.jets import ArrayJet


def _last(x, k):
    """The array x with its k leading derivative axes moved last."""
    return np.moveaxis(x, range(k), range(-k, 0))


def _first(x, k):
    return np.moveaxis(x, range(-k, 0), range(k))


def einsum_matmul(a, b):
    """(value, gradient, Hessian) of ``a @ b`` by the einsum product rule."""
    ja, jb = isinstance(a, ArrayJet), isinstance(b, ArrayJet)
    av, bv = (x.v if isinstance(x, ArrayJet) else np.asarray(x, float) for x in (a, b))
    na, nb = av.ndim, bv.ndim
    sa, sb = "...ij" if na > 1 else "j", "...jk" if nb > 1 else "j"
    out = "..." * (na > 1 or nb > 1) + "i" * (na > 1) + "k" * (nb > 1)

    def dot(x, tx, y, ty):
        return np.einsum(f"{sa}{tx},{sb}{ty}->{out}{tx}{ty}", _last(x, len(tx)),
                         _last(y, len(ty)))

    terms = ([dot(a.g, "x", bv, "")] if ja else []) + ([dot(av, "", b.g, "x")] if jb else [])
    g = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    h = None
    if (not ja or a.h is not None) and (not jb or b.h is not None):
        h = dot(a.h, "xy", bv, "") if ja else dot(av, "", b.h, "xy")
        if ja and jb:
            S = dot(a.g, "x", b.g, "y")
            h = h + S + np.swapaxes(S, -1, -2) + dot(av, "", b.h, "xy")
    return dot(av, "", bv, ""), _first(g, 1), None if h is None else _first(h, 2)


def magnitude(x):
    """The array jet (or float array) x with every part replaced by its
    absolute value: ``einsum_matmul`` of two magnitudes bounds the size of
    the terms that each entry of the product sums."""
    if not isinstance(x, ArrayJet):
        return np.abs(x)
    return ArrayJet(np.abs(x.v), np.abs(x.g), None if x.h is None else np.abs(x.h))
