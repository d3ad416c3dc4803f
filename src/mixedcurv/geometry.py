"""Extrinsic geometry of an adapted splitting at a chart point.

One evaluation pass drives everything: the metric (and the distribution's
spanning fields) are evaluated on order-2 jets, the adapted Gram-Schmidt frame
is a jet field, and every first-derivative tensor (second fundamental
forms, integrability tensors, mean curvatures, the alpha/theta families) is
assembled in jet arithmetic so that its chart components carry their own
spatial gradients.  Divergences, deformation tensors and gradients of derived
scalars then read those gradients directly; curvature uses the order-2
information of the Christoffel jets.  No finite differencing happens anywhere
in this module.

The extrinsic quantities come in dual pairs (h of D-tilde and h~ of D, and so
on).  Each is written once, on :class:`BlockView`; ``PointGeometry.tan`` views
the splitting from D-tilde and ``PointGeometry.perp`` from D, so the tilde
quantities are the ``perp`` view's.

Curvature convention: R(X,Y) = nabla_Y nabla_X - nabla_X nabla_Y + nabla_[X,Y],
the sign for which round spheres have sectional curvature +1 under
K(X^Y) = g(R(X,Y)X, Y) / W(X,Y).

A bundle may carry a batch B: of metrics at its point (a metric field of
shape B + (d, d)), or of N quadrature nodes (an (N, d) array of points,
whose seeds give the batch (N,)).  Every member is written on trailing
axes, and the per-point bundle is the empty batch; a method's arguments
broadcast against the batch.
"""

from __future__ import annotations

import random
from contextlib import suppress
from functools import cached_property, wraps
from operator import attrgetter

import numpy as np

from .errors import (InvalidArgumentError, MixedCurvError, SingularEvaluationError,
                     SpecializationError, member_point)
from .jets import (ArrayJet, check_finite, dense, dshift, einsum, gradients, inverse, order1,
                   seed, values)
from .structure import DEGENERACY_TOL, orthonormal_frame


def jet_matrix_inverse(A, d, point=None):
    """Inverse of a batch B of d x d matrices, A of shape B + (d, d): an
    array jet of the inverse for an array jet, a float array for a float
    array.

    Gauss-Jordan on the values alone with scaled partial pivoting: each
    matrix of the batch pivots on the first row of the largest
    |a_rc| / scale_r, scale_r the largest |entry| of input row r.  A pivot
    at or below 1e-14 of the size of the terms the elimination summed into
    it is singular: a zero left by cancellation fails, a small input entry
    does not.  The pivot search, its test and the row swap run per matrix
    of B; the row operations act on the augmented rows [A0 | I].  The
    derivatives follow in closed form (:func:`mixedcurv.jets.inverse`)."""
    A0 = A.v if isinstance(A, ArrayJet) else np.asarray(A, dtype=float)
    batch = A0.shape[:-2]
    at = tuple(ix[..., None] for ix in np.indices(batch, sparse=True))
    X = np.concatenate((A0, np.broadcast_to(np.eye(d), A0.shape)), axis=-1)
    size = np.abs(A0)
    scale = np.max(size, axis=-1)
    scale[scale == 0.0] = 1.0                    # a zero row: its entries stay 0
    for col in range(d):
        piv = col + np.argmax(np.abs(X[..., col:, col]) / scale[..., col:], axis=-1)
        if np.any(piv != col):                   # the first largest
            perm = np.array(np.broadcast_to(np.arange(d), batch + (d,)))
            np.put_along_axis(perm, piv[..., None], col, -1)
            perm[..., col] = piv
            X, size = X[at + (perm,)], size[at + (perm,)]
            scale = np.take_along_axis(scale, perm, -1)
        singular = np.abs(X[..., col, col]) <= 1e-14 * size[..., col, col]
        if np.any(singular):
            raise SingularEvaluationError(
                "singular metric", point=member_point(point, np.argwhere(singular)[0]))
        # X[r] - X[r][col] X[col] on every row (|terms| into size), then the pivot row
        inv = (1.0 / X[..., col, col])[..., None]
        row, srow, f = X[..., col, :] * inv, size[..., col, :] * np.abs(inv), X[..., :, col, None]
        size += np.abs(f) * srow[..., None, :]  # first: f is a view of X
        X -= f * row[..., None, :]
        X[..., col, :], size[..., col, :] = row, srow
    V = X[..., :, d:]
    return inverse(A, V) if isinstance(A, ArrayJet) else V


def _first_to_last(R, M):
    """sum_s R[..., s, x, y, z] M[..., s, a] as [..., x, y, z, a], one matmul."""
    B, d = R.shape[:-4], R.shape[-1]
    return (R.reshape(B + (d, d ** 3)).mT @ M).reshape(B + (d,) * 4)


def metric_jets(metric_fn, xs, d, point):
    """``metric_fn``'s field at the seeds ``xs`` as an array jet, read as a
    bundle at ``point`` reads its metric: an arithmetic error or a
    non-finite value, of the structure's metric or a caller's, raises
    SingularEvaluationError naming the failing node of ``point``, or no
    point where ``point`` is None (``node_chunks`` then names the node)."""
    try:
        rows = metric_fn(xs)
    except SingularEvaluationError as exc:
        if exc.point is None:
            raise SingularEvaluationError(
                exc.reason, point=member_point(point, exc.at)) from exc
        raise
    except ArithmeticError as exc:
        raise SingularEvaluationError(
            f"arithmetic error in the metric ({type(exc).__name__}: {exc})",
            point=member_point(point, getattr(exc, "at", None))) from None
    return check_finite(dense(rows, d), point=point)


def _copy_error(exc):
    """A copy of the error ``exc`` with its class, arguments and attributes
    (message, ``point``), but no traceback, cause or context."""
    out = type(exc).__new__(type(exc), *exc.args)
    out.__dict__.update(exc.__dict__)
    return out


def _keeps_error(fn):
    """``fn`` as a cached property that also keeps the MixedCurvError it
    raised: a later read raises a fresh copy of it, so the checks at a
    failing bundle evaluate it once.  The kept copy holds no traceback, whose
    frames would hold the bundle in a reference cycle."""
    name = fn.__name__

    @wraps(fn)
    def read(self):
        failed = self.__dict__.setdefault("_failed", {})
        if name in failed:
            raise _copy_error(failed[name])
        try:
            return fn(self)
        except MixedCurvError as exc:
            failed[name] = _copy_error(exc)
            raise

    return cached_property(read)


def _scalar(x):
    """A float at the empty batch, else the array of the batch shape."""
    return float(x) if np.ndim(x) == 0 else x


def quad(X, M, Y):
    """M(X, Y) = X^m M_mn Y^n for chart vectors, over the batch."""
    return _scalar(np.einsum("...m,...mn,...n->...", X, M, Y))


def metric_density(g0, point=None):
    """sqrt|det g| of metric values of shape B + (d, d); a zero determinant
    raises, as a degenerate metric has no volume element."""
    det = np.linalg.det(g0)
    if np.any(det == 0.0):
        raise SingularEvaluationError(
            "degenerate metric", point=member_point(point, np.argwhere(det == 0.0)[0]))
    return _scalar(np.sqrt(np.abs(det)))


class PointGeometry:
    """Geometry bundle of (structure, metric) at one interior chart point,
    or at a batch of nodes.

    ``metric_fn``/``dtilde_fn`` default to the structure's own expressions;
    passing replacements evaluates a modified metric (variations, conformal
    changes, block rescalings) over the same distribution.

    The metric function's field at the bundle's seeds sets the batch: a
    (d, d) field gives the per-point bundle, a B + (d, d) field a bundle of
    the batch B of metrics at the point (one frame per member, each with
    its own pivots and signs).  An (N, d) array of nodes as ``point`` gives
    node seeds, so its fields carry the batch (N,) (``point`` is then the
    tuple of the nodes, and an error of one node names that node; ``coords``
    holds the coordinates as one float array).  A metric batch over N nodes
    must lead with the node axis, as (N, k), so that an error names its
    node: the metric refuses one that does not start with N.  An N-member
    batch over N nodes cannot be told apart from the node axis.  Every
    member carries the batch axes first; its scalars are floats at the
    empty batch and arrays of shape B otherwise.
    """

    def __init__(self, struct, point, metric_fn=None, dtilde_fn=None):
        self.struct = struct
        self.coords = np.array(point, dtype=float)
        struct.require_inside(self.coords)
        nodes = [tuple(x) for x in np.atleast_2d(self.coords).tolist()]
        self.point = tuple(nodes) if self.coords.ndim == 2 else nodes[0]
        self.d = struct.dim
        self.n = struct.n
        self.p = struct.dim - struct.n
        self._metric_fn = metric_fn or struct.metric_at
        self._dtilde_fn = dtilde_fn or struct.dtilde_at

    # ------------------------------------------------------------------
    # jets of the raw data

    @cached_property
    def seeds(self):
        return seed(self.coords, 2)

    @_keeps_error
    def gJ(self):
        """The metric as an order-2 jet field (``metric_jets``)."""
        g = metric_jets(self._metric_fn, self.seeds, self.d, self.point)
        if self.coords.ndim == 2 and g.shape[:1] != self.coords.shape[:1]:
            raise InvalidArgumentError(f"a metric batch {g.shape[:-2]} over "
                                       f"{len(self.coords)} nodes must lead with the nodes")
        return g

    @property
    def batch(self):
        """The leading axes of the metric field: () at one point."""
        return self.gJ.shape[:-2]

    @_keeps_error
    def ginvJ(self):
        """The inverse metric as order-1 jets: no consumer reads its Hessian."""
        return jet_matrix_inverse(order1(self.gJ), self.d, point=self.point)

    @cached_property
    def GammaJ(self):
        """Christoffel symbols as an order-1 jet field; index order
        [sigma][mu][nu].

        Built from dshift of the metric jets, so the jet gradient of an entry
        is the chart derivative of that Christoffel symbol.
        """
        dg = dshift(self.gJ)                                  # [m]...[t][nu]
        # dsym[t][m][nu] = d_m g_{t nu} + d_nu g_{t m} - d_t g_{m nu}
        dsym = (einsum("m...tn->...tmn", dg) + einsum("n...tm->...tmn", dg)
                - einsum("t...mn->...tmn", dg))
        return 0.5 * einsum("...st,...tmn->...smn", self.ginvJ, dsym)

    @_keeps_error
    def frameJ(self):
        return orthonormal_frame(self.gJ, self._dtilde_fn(self.seeds), self.d,
                                 point=self.point)

    @property
    def eps(self):
        return self.frameJ.signs

    @cached_property
    def framevecsJ(self):
        """Frame vectors e_a (rows) as an order-2 jet field, tangent block first."""
        return self.frameJ.vectors

    # The field algebra: jet tensor fields are array jets of order 1, and
    # every contraction is a two-operand ``@`` or ``einsum``.

    @cached_property
    def g1(self):
        return order1(self.gJ)

    @cached_property
    def frame1(self):
        """Frame vectors e_a (rows), tangent block first."""
        return order1(self.framevecsJ)

    @cached_property
    def flat1(self):
        """Frame covectors g(e_a, .) (rows)."""
        return self.frame1 @ self.g1

    @cached_property
    def nabla_frame(self):
        """(nabla_m e_a)^s of every frame field, index order [a][m][s]."""
        dE = dshift(self.framevecsJ)                             # [m]...[a][s]
        return (einsum("m...as->...ams", dE)
                + einsum("...smn,...an->...ams", self.GammaJ, self.frame1))

    # ------------------------------------------------------------------
    # the two blocks of the splitting

    @property
    def tan(self):
        """D-tilde (frame 0..n-1) as the block, D as its dual."""
        return BlockView(self, "tan", "perp", slice(0, self.n), self.frameJ.eps_tan)

    @property
    def perp(self):
        """D (frame n..d-1) as the block, D-tilde as its dual."""
        return BlockView(self, "perp", "tan", slice(self.n, self.d), self.frameJ.eps_perp)

    @property
    def hfr(self):
        """h of D-tilde in frame components (``tan.h``); the benchmark's
        stage probe times the fundamental forms through this name."""
        return self.tan.h

    # ------------------------------------------------------------------
    # float extracts

    @cached_property
    def g0(self):
        return values(self.gJ)

    @cached_property
    def ginv0(self):
        return values(self.ginvJ)

    @cached_property
    def Gamma0(self):
        return values(self.GammaJ)

    @cached_property
    def F(self):
        """Frame vector components (rows), tangent block first."""
        return values(self.framevecsJ)

    @cached_property
    def Fb(self):
        """Frame covectors: Fb[alpha] = g(e_alpha, .) in chart components."""
        return self.F @ self.g0

    @cached_property
    def volume_density(self):
        return metric_density(self.g0, self.point)

    # ------------------------------------------------------------------
    # curvature

    @cached_property
    def Rcoord(self):
        """R(d_mu, d_nu) d_gamma = Rcoord[sigma, mu, nu, gamma] d_sigma."""
        dG = gradients(self.GammaJ, self.d)
        G, d, B = self.Gamma0, self.d, self.Gamma0.shape[:-3]
        R = np.einsum("n...smg->...smng", dG) - np.einsum("m...sng->...smng", dG)
        # Q[s, a, b, g] = Gamma^s_ak Gamma^k_bg, one matmul over k
        Q = (G.reshape(B + (d * d, d)) @ G.reshape(B + (d, d * d))).reshape(B + (d,) * 4)
        R += Q.swapaxes(-3, -2) - Q
        return R

    @cached_property
    def R04(self):
        return _first_to_last(self.Rcoord, self.g0)

    @cached_property
    def R4(self):
        """Frame components g(R(e_a, e_b) e_c, e_d)."""
        E = values(self.framevecsJ).mT
        R = self.R04              # each pass turns the first chart index into a frame one, last
        for _ in range(4):
            R = _first_to_last(R, E)
        return R

    def riemann(self, X, Y, Z):
        """R(X, Y) Z for chart-component vectors, as chart components."""
        return np.einsum("...smng,...m,...n,...g->...s", self.Rcoord, X, Y, Z)

    def sectional(self, X, Y):
        g = self.g0
        gXX, gYY, gXY = quad(X, g, X), quad(Y, g, Y), quad(X, g, Y)
        W = gXX * gYY - gXY * gXY
        # judged against the size W would have without cancellation
        flat = np.abs(W) <= DEGENERACY_TOL * (np.abs(gXX * gYY) + gXY * gXY)
        if np.any(flat):
            raise SingularEvaluationError("degenerate plane section",
                                          point=member_point(self.point, np.argwhere(flat)[0]))
        return quad(self.riemann(X, Y, X), g, Y) / W

    @cached_property
    def smix(self):
        """sum eps_a eps_i g(R(E_a, E_i) E_a, E_i) over D-tilde's E_a and D's E_i."""
        n, e = self.n, self.eps
        return _scalar(np.einsum("...a,...aiai,...i->...", e[..., :n],
                                 self.R4[..., :n, n:, :n, n:], e[..., n:]))

    @cached_property
    def ricci_frame(self):
        """Ric(e_a, e_b) = sum_l eps_l g(R(e_a, e_l) e_b, e_l)."""
        return np.einsum("...l,...albl->...ab", self.eps, self.R4)

    @property
    def ric_N(self):
        if self.n != 1:
            raise SpecializationError("Ric_N is reported only for rank-one D-tilde")
        return _scalar(self.ricci_frame[..., 0, 0])

    @cached_property
    def jacobi_N(self):
        """(R_N)-flat on the complement block: g(R(N, E_i) N, E_j), n = 1."""
        if self.n != 1:
            raise SpecializationError("the Jacobi operator needs rank-one D-tilde")
        return self.R4[..., 0, 1:, 0, 1:]

    # ------------------------------------------------------------------
    # float frame algebra

    def lam(self, Pb, Qb):
        """Lambda_{P,Q}: the symmetric frame (0,2) tensor defined by
        <Lambda_{P,Q}, S> = sum eps eps [S(P, Q) + S(Q, P)]."""
        e = self.eps
        E = np.einsum("...l,...m,...lmk,...lmn->...kn", e, e, Pb, Qb)
        return E + E.mT

    # ------------------------------------------------------------------
    # divergences and derivative-bearing tensors

    def nabla_values(self, J, kinds):
        """(nabla_m J) as floats [..., m, <J's axes>] from a jet tensor field
        J whose axes are upper ('u') or lower ('l'), as ``kinds`` lists them."""
        G, J0, ax = self.Gamma0, values(J), "abc"[:len(kinds)]
        out = np.moveaxis(gradients(J, self.d), 0, -len(kinds) - 1)
        for i, (x, kind) in enumerate(zip(ax, kinds)):
            at = ax[:i] + "k" + ax[i + 1:]
            if kind == "u":
                out = out + np.einsum(f"...{x}mk,...{at}->...m{ax}", G, J0)
            else:
                out = out - np.einsum(f"...km{x},...{at}->...m{ax}", G, J0)
        return out

    def div_vector(self, VJ, mode="full"):
        """div V, or its block sums in the modes 'tan' and 'perp'."""
        nabla = self.nabla_values(VJ, "u")
        if mode == "full":
            return _scalar(np.trace(nabla, axis1=-2, axis2=-1))
        return _scalar(np.einsum("...ms,...ms->...", self._weight(mode), nabla))

    def _weight(self, mode):
        """W[m, s] = sum_block eps e^m (e-flat)_s, the identity in mode 'full'."""
        if mode == "full":
            return np.eye(self.d)
        if mode not in ("tan", "perp"):
            raise SpecializationError(f"unknown divergence mode {mode!r}")
        sl = getattr(self, mode).sl
        return np.einsum("...k,...km,...ks->...ms", self.eps[..., sl], self.F[..., sl, :],
                         self.Fb[..., sl, :])

    def div_12(self, PJ, mode="full"):
        """Divergence of a (1,2) jet tensor field, chart (0,2) components."""
        return np.einsum("...msnr,...ms->...nr", self.nabla_values(PJ, "ull"),
                         self._weight(mode))

    def div_11(self, SJ, mode="perp"):
        """(div S) 1-form chart components for a (1,1) jet field."""
        return np.einsum("...msn,...ms->...n", self.nabla_values(SJ, "ul"), self._weight(mode))

    def to_frame02(self, coord02):
        return self.F @ coord02 @ self.F.mT

    def frame_pairing(self, C_frame, B_frame):
        """<C, B> = sum eps eps C(e_k, e_l) B(e_k, e_l), frame components."""
        return _scalar(np.einsum("...k,...l,...kl,...kl->...", self.eps, self.eps,
                                 C_frame, B_frame))

    def nabla02_in_direction(self, TJ, X0):
        """(nabla_X T) chart components for a (0,2) jet field and float X."""
        return np.einsum("...mnr,...m->...nr", self.nabla_values(TJ, "ll"), X0)

    def pair_vec_12(self, Pb_full, Vb_frame):
        """(0,2) frame tensor g(P(e_l, e_m), V) from flat comps of P and V."""
        return np.einsum("...lmk,...k,...k->...lm", Pb_full, self.eps, Vb_frame)

    # ------------------------------------------------------------------

    def once(self, fn):
        """``fn(self)``, evaluated once per bundle: callers that each need
        one part of the same function's result share its evaluation."""
        memo = self.__dict__.setdefault("_once", {})
        if fn not in memo:
            memo[fn] = fn(self)
        return memo[fn]

    def summary(self):
        out = {"point": list(self.point)}
        for name in BUNDLE_QUANTITIES:
            if name != "ric_N" or self.n == 1:
                out[name] = bundle_value(self, name)
        return out


# Public name -> attribute path of every quantity ``summary()`` reports (ric_N
# only for a rank-one D-tilde); the gallery's expected tables read the same
# names.
BUNDLE_QUANTITIES = {
    "eps_tan": "tan.eps", "eps_perp": "perp.eps",
    "S_mix": "smix",
    "S_ex": "tan.s_ex", "S_ex_tilde": "perp.s_ex",
    "norm_h": "tan.norm_h", "norm_h_tilde": "perp.norm_h",
    "norm_T": "tan.norm_T", "norm_T_tilde": "perp.norm_T",
    "g_HH": "tan.gHH", "g_HtHt": "perp.gHH",
    "div_H": "tan.div_H", "div_H_tilde": "perp.div_H",
    "r_perp": "perp.r", "r_tan": "tan.r",
    "H_frame": "tan.Hb_frame", "Ht_frame": "perp.Hb_frame",
    "ric_N": "ric_N",
}


def bundle_value(geom, name):
    """A bundle quantity by its public name, as a float or (nested) lists."""
    v = attrgetter(BUNDLE_QUANTITIES[name])(geom)
    return v.tolist() if isinstance(v, np.ndarray) else v


class BlockView:
    """One block of the splitting, with the other block as its dual.

    Indices a, b run over the block's frame vectors E_a and i, j over the
    dual's E_i, both local to their block.  On ``PointGeometry.tan`` the
    block is D-tilde, so h, T, H, A, ... are the paper's; on
    ``PointGeometry.perp`` it is D, and the same names give h~, T~, H~,
    A~, ...  Quantities of the block take values in the dual (h(E_a, E_b)
    and H lie in the dual), the way h of D-tilde lies in D.
    """

    # A view is made afresh on each access and caches into a dict owned by
    # the bundle; ``g`` sits in a slot outside that dict, so the bundle never
    # refers back to a view.  Such a cycle would keep every bundle alive
    # until a full garbage collection.
    __slots__ = ("g", "__dict__")

    def __init__(self, geom, side, dual_side, sl, eps):
        self.g = geom
        self.__dict__ = geom.__dict__.setdefault(f"_{side}_cache", {})
        self.side = side
        self.dual_side = dual_side
        self.sl = sl
        self.idx = range(geom.d)[sl]
        self.dim = len(self.idx)
        self.eps = eps

    @property
    def dual(self):
        return getattr(self.g, self.dual_side)

    def _rank_one(self, what):
        if self.dim != 1:
            raise SpecializationError(f"{what} needs a rank-one {self.side} block")

    @property
    def frame1(self):
        return self.g.frame1[..., self.sl, :]

    @property
    def flat1(self):
        return self.g.flat1[..., self.sl, :]

    def project(self, V):
        """The block part sum eps_a g(V, E_a) E_a of a jet vector field."""
        c = einsum("...am,...m->...a", self.flat1, V) * self.eps
        return einsum("...a,...am->...m", c, self.frame1)

    @cached_property
    def nabla_EE(self):
        """nabla_{E_a} E_b, index order [a][b][s]."""
        return einsum("...am,...bms->...abs", self.frame1,
                      self.g.nabla_frame[..., self.sl, :, :])

    # ------------------------------------------------------------------
    # fundamental forms

    @cached_property
    def ffJ(self):
        """Frame scalars of the fundamental forms, as jets.

        (h, T) with h[a][b][i] = g(h(E_a, E_b), E_i) and T its antisymmetric
        counterpart; pairing with the dual frame vectors performs the block
        projection.
        """
        W = einsum("...abs,...is->...abi", self.nabla_EE, self.dual.flat1)
        Wt = einsum("...abi->...bai", W)             # W = g(nabla_{E_a} E_b, E_i)
        return 0.5 * (W + Wt), 0.5 * (W - Wt)

    @cached_property
    def h(self):
        return values(self.ffJ[0])

    @cached_property
    def T(self):
        return values(self.ffJ[1])

    @cached_property
    def HJ(self):
        """Mean curvature vector field, jet chart components."""
        dual = self.dual
        c = einsum("...ia,...a->...i", self.ffJ[0].diagonal(0, -3, -2), self.eps)
        return einsum("...i,...is->...s", c * dual.eps, dual.frame1)

    @cached_property
    def H0(self):
        return values(self.HJ)

    @cached_property
    def Hb_frame(self):
        return np.einsum("...km,...m->...k", self.g.Fb, self.H0)

    # ------------------------------------------------------------------
    # scalar invariants

    def _norm(self, F):
        e, de = self.eps, self.dual.eps
        return _scalar(np.einsum("...a,...b,...i,...abi,...abi->...", e, e, de, F, F))

    @cached_property
    def norm_h(self):
        return self._norm(self.h)

    @cached_property
    def norm_T(self):
        return self._norm(self.T)

    @cached_property
    def gHH(self):
        return quad(self.H0, self.g.g0, self.H0)

    @property
    def s_ex(self):
        return self.gHH - self.norm_h

    @cached_property
    def div_H(self):
        return self.g.div_vector(self.HJ)

    # ------------------------------------------------------------------
    # Weingarten-type operators (float matrices [..., i, b, a], frame basis;
    # column = input, one per dual frame vector E_i)

    def _ops(self, F):
        return np.einsum("...b,...abi->...iba", self.eps, F)

    @cached_property
    def A_ops(self):
        return self._ops(self.h)

    @cached_property
    def Tsharp_ops(self):
        return self._ops(self.T)

    def _dual_sum(self, M):
        """sum_i eps_i M[i] over the dual frame."""
        return np.einsum("...i,...iab->...ab", self.dual.eps, M)

    @cached_property
    def casorati(self):
        A = self.A_ops
        return self._dual_sum(A @ A)

    @cached_property
    def tcal(self):
        T = self.Tsharp_ops
        return self._dual_sum(T @ T)

    @cached_property
    def kcal(self):
        A, T = self.A_ops, self.Tsharp_ops
        return self._dual_sum(T @ A - A @ T)

    def flat(self, op):
        """(0,2) frame form of an operator acting on the block."""
        return op.mT * self.eps[..., None, :]

    @cached_property
    def psi(self):
        """Psi(E_i, E_j) = Tr(A_j A_i + T#_j T#_i), indexed by the dual."""
        A, T = self.A_ops, self.Tsharp_ops
        return np.einsum("...jba,...iab->...ij", A, A) + np.einsum("...jba,...iab->...ij", T, T)

    @cached_property
    def r(self):
        """Partial Ricci tensor of the block, frame components."""
        sl, dsl = self.sl, self.dual.sl
        return np.einsum("...k,...kakb->...ab", self.g.eps[..., dsl],
                         self.g.R4[..., dsl, sl, dsl, sl])

    # ------------------------------------------------------------------
    # (1,2)-tensors in full-frame flat components

    def _full(self, F):
        k = self.g.d
        out = np.zeros(F.shape[:-3] + (k, k, k))
        out[..., self.sl, self.sl, self.dual.sl] = F
        return out

    @cached_property
    def hb_full(self):
        """hb[l, m, k] = g(h(e_l, e_m), e_k) over the full frame."""
        return self._full(self.h)

    @cached_property
    def Tb_full(self):
        return self._full(self.T)

    def _mixed_full(self, F):
        """P(X,Y) = (F#_{X dual}(Y block) + F#_{Y dual}(X block))/2, flat comps."""
        k, dsl = self.g.d, self.dual.sl
        out = np.zeros(F.shape[:-3] + (k, k, k))
        half = 0.5 * F                       # g(F#_i E_a, E_b)/2 at [a, b, i]
        out[..., self.sl, dsl, self.sl] = half.mT
        out[..., dsl, self.sl, self.sl] = np.moveaxis(half, -1, -3)
        return out

    @cached_property
    def alpha_b(self):
        return self._mixed_full(self.h)

    @cached_property
    def theta_b(self):
        return self._mixed_full(self.T)

    @cached_property
    def phi_h(self):
        g = self.g
        Hb = self.Hb_frame
        return Hb[..., :, None] * Hb[..., None, :] - 0.5 * g.lam(self.hb_full, self.hb_full)

    @cached_property
    def phi_T(self):
        return -0.5 * self.g.lam(self.Tb_full, self.Tb_full)

    # ------------------------------------------------------------------
    # jet chart components of derived tensor fields

    @cached_property
    def h_field(self):
        """h as a (1,2) chart-component jet field (projection-extended)."""
        return _field12(self.ffJ[0], self, self, self.dual)

    def _mixed_field(self, FJ):
        """alpha (F = h) or theta (F = T) as a (1,2) chart jet field."""
        half = _field12(0.5 * einsum("...abi->...iab", FJ), self.dual, self, self)
        return half + half.mT

    @cached_property
    def alpha_field(self):
        return self._mixed_field(self.ffJ[0])

    @cached_property
    def theta_field(self):
        return self._mixed_field(self.ffJ[1])

    @cached_property
    def div_theta(self):
        """div theta as a frame (0,2) matrix."""
        return self.g.to_frame02(self.g.div_12(self.theta_field))

    def _normal_op_field(self, FJ):
        """F#_N as a (1,1) chart jet field, N the unit field of a rank-one dual."""
        self.dual._rank_one("an operator field along N")
        C = FJ[..., 0] * np.einsum("...a,...b->...ab", self.eps, self.eps)
        return einsum("...as,...an->...sn", self.frame1,
                      einsum("...ba,...bn->...an", C, self.flat1))

    @cached_property
    def A_field(self):
        """A_N as a (1,1) chart jet field (rank-one dual)."""
        return self._normal_op_field(self.ffJ[0])

    @cached_property
    def Tsharp_field(self):
        """T#_N as a (1,1) chart jet field (rank-one dual)."""
        return self._normal_op_field(self.ffJ[1])

    @cached_property
    def tau1_J(self):
        """tau_1 = Tr A_N for a rank-one dual, as a jet scalar."""
        self.dual._rank_one("tau_1")
        return einsum("...a,...a->...", self.ffJ[0][..., 0].diagonal(0, -2, -1), self.eps)

    @cached_property
    def nabla_N_hsc(self):
        """nabla_N h_sc in block frame components, N the unit field of a
        rank-one dual and h_sc = eps_N g(h, N) the scalar second fundamental
        form, with N-flat the jet field ``flat1``: its derivatives enter the
        covariant derivative."""
        self.dual._rank_one("nabla_N h_sc")
        g, k = self.g, self.dual.idx[0]
        hscJ = (einsum("...s,...snr->...nr", g.flat1[..., k, :], self.h_field)
                * self.dual.eps[..., :1, None])
        F = g.F[..., self.sl, :]
        return F @ g.nabla02_in_direction(hscJ, g.F[..., k, :]) @ F.mT

    @cached_property
    def unit_J(self):
        """The frame field of a rank-one block, jet chart components."""
        self._rank_one("a unit field")
        return self.frame1[..., 0, :]

    # ------------------------------------------------------------------
    # block tensors built from derivatives

    @cached_property
    def pair_tensor_vec(self):
        """<h, H>(E_a, E_b) = g(h(E_a, E_b), H) on the block."""
        dual = self.dual
        H_dual = np.einsum("...im,...m->...i", self.g.Fb[..., dual.sl, :], self.H0)
        return np.einsum("...i,...abi,...i->...ab", dual.eps, self.h, H_dual)

    def _nabla_pairs(self, ZJ, cols):
        """g(nabla_{E_a} Z, e_k) for the block's E_a and the frame's e_k, k in
        the slice cols."""
        g = self.g
        nu = np.einsum("...ms,...um->...us", g.nabla_values(ZJ, "u"), g.F[..., self.sl, :])
        return np.einsum("...ks,...us->...uk", g.Fb[..., cols, :], nu)

    def def_of(self, ZJ):
        """Def Z: symmetrized nabla Z on the block, frame components."""
        M = self._nabla_pairs(ZJ, self.sl)
        return 0.5 * (M + M.mT)

    def delta_of(self, ZJ):
        """delta_Z on (block, dual) pairs, g(nabla_{E_a} Z, E_i)/2 (delta~ of
        the paper on ``tan``)."""
        return 0.5 * self._nabla_pairs(ZJ, self.dual.sl)


def _field12(C, X, Y, Z):
    """The (1,2) chart jet field P with frame components C[x][y][z] =
    g(P(E_x, E_y), E_z) for E_x, E_y, E_z in the blocks X, Y, Z, and zero
    on every other triple of frame vectors."""
    w = np.einsum("...a,...b,...c->...abc", X.eps, Y.eps, Z.eps)
    P = einsum("...abc,...cs->...abs", C * w, Z.frame1)
    P = einsum("...abs,...br->...asr", P, Y.flat1)
    return einsum("...an,...asr->...snr", X.flat1, P)


# ----------------------------------------------------------------------
# module-level operations

def smix_density_fast(struct, point, metric_fn=None):
    """(S_mix, sqrt|det g|) without frames, the quadrature integrand: floats
    at a point, arrays at an (N, d) array of nodes."""
    return smix_density(PointGeometry(struct, point, metric_fn=metric_fn))


def smix_density(geom):
    """(S_mix, sqrt|det g|) read from the bundle ``geom``: S_mix by the
    projector formula S_mix = Pi~^{mg} Pi^{nd} R_{mngd}, with Pi~ the inverse
    metric restricted to D-tilde and Pi = g^{-1} - Pi~, so no frame is built."""
    Wm = np.swapaxes(values(geom._dtilde_fn(geom.seeds)), -1, -2)
    gram = Wm.mT @ geom.g0 @ Wm
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        # inv fails where LU meets a zero pivot, which is where det is 0
        at = np.argwhere(np.linalg.det(gram) == 0.0)[0]
        raise SingularEvaluationError("degenerate distribution",
                                      point=member_point(geom.point, at)) from None
    PiT = Wm @ gram_inv @ Wm.mT
    PiP = geom.ginv0 - PiT
    smix = _scalar(np.einsum("...mg,...nd,...mngd->...", PiT, PiP, geom.R04))
    return smix, geom.volume_density


# Quadrature nodes are evaluated in chunks of at most BATCH_ELEMENTS // d**4
# nodes, so that the largest arrays of a chunk, the second metric derivatives
# and the Riemann tensor of shape (nodes, d, d, d, d), hold about
# BATCH_ELEMENTS floats.
BATCH_ELEMENTS = 1 << 16


def node_chunks(pts, d, chunk_fn):
    """The values of ``chunk_fn`` at every node of ``pts``, in node order, as
    one array with a leading node axis (or a dict of such arrays).

    ``chunk_fn`` maps an (N, d) array of nodes to an array with a leading
    node axis, or to a dict of them.  A chunk where it raises
    :class:`MixedCurvError` or gives a non-finite value is evaluated again
    as one-node chunks, as is a chunk of one node, so an error surfaces at
    its node: with the class and message it has there, and that node as its
    point, as a bundle at the node alone raises it."""
    size = max(1, BATCH_ELEMENTS // d ** 4)
    out = []
    for lo in range(0, len(pts), size):
        chunk = np.array(pts[lo:lo + size], dtype=float)
        vals = None
        with np.errstate(all="ignore"), suppress(MixedCurvError):
            vals = chunk_fn(chunk) if len(chunk) > 1 else None
        arrays = vals.values() if isinstance(vals, dict) else [vals]
        ok = vals is not None and all(np.isfinite(v).all() for v in arrays)
        out += [vals] if ok else [_at_node(chunk_fn, node) for node in chunk]
    if out and isinstance(out[0], dict):
        return {k: np.concatenate([o[k] for o in out]) for k in out[0]}
    return np.concatenate(out) if out else np.zeros(0)


def _at_node(chunk_fn, node):
    """``chunk_fn`` at the one node ``node``; an error names that node."""
    try:
        with np.errstate(all="ignore"):
            return chunk_fn(node[None])
    except SingularEvaluationError as exc:
        raise type(exc)(exc.reason, point=node.tolist()) from exc


def random_perp_field(geom, rng_seed):
    """Deterministic smooth complement-valued field, jet chart components."""
    rng = random.Random(rng_seed)
    C = np.array([[rng.uniform(-1, 1) for _ in range(geom.d + 1)]
                  for _ in range(geom.p)])
    # affine coefficients
    c = C[:, 0] + einsum("ij,...j->...i", C[:, 1:], order1(dense(geom.seeds, geom.d)))
    return einsum("...i,...im->...m", c, geom.perp.frame1)


def identity_suite(struct, point, rng_seed=7):
    """Residual norms of the structural identities at a point: builds the
    bundle for :func:`identity_suite_at`."""
    return identity_suite_at(PointGeometry(struct, point), rng_seed=rng_seed)


def identity_suite_at(g, rng_seed=7):
    """Residual norms of the structural identities read from the bundle
    ``g``; each equation's two sides travel independent code paths
    (curvature vs. first-derivative assembly).  On a batch every residual
    is an array of the batch shape."""
    tan, perp = g.tan, g.perp
    n = g.n
    res = {}

    def worst(M):
        """max |M| over the last two axes."""
        return _scalar(np.max(np.abs(M), axis=(-2, -1)))

    def form(X, M, Y):
        """X M Y as the product of a row, a matrix and a column."""
        return _scalar((X[..., None, :] @ M @ Y[..., :, None])[..., 0, 0])

    # (a) partial Ricci tensor vs the divergence identity, complement block
    div_ht = g.to_frame02(g.div_12(perp.h_field, mode="full"))[..., n:, n:]
    rhs = (div_ht + perp.pair_tensor_vec - perp.flat(perp.casorati)
           - perp.flat(perp.tcal) - tan.psi + perp.def_of(tan.HJ))
    res["partial_ricci_identity"] = worst(perp.r - rhs)

    # (b) S_mix from extrinsic invariants
    res["smix_decomposition"] = abs(
        g.smix - (tan.s_ex + perp.s_ex + tan.norm_T + perp.norm_T
                  + tan.div_H + perp.div_H))

    def trace(M):
        """sum_i eps_i M(E_i, E_i) over D."""
        return _scalar(np.einsum("...i,...ii->...", perp.eps, M))

    # (c) trace of the partial Ricci tensor
    res["partial_ricci_trace"] = abs(trace(perp.r) - g.smix)

    # (d) trace of Psi
    res["psi_trace"] = abs(trace(tan.psi) - tan.norm_h + tan.norm_T)

    # (e) trace of Def_D H
    res["def_trace"] = abs(trace(perp.def_of(tan.HJ)) - tan.div_H - tan.gHH)

    # (f) traceless commutator operators
    res["kcal_trace"] = sum(abs(_scalar(np.trace(b.kcal, axis1=-2, axis2=-1)))
                            for b in (tan, perp))

    # (g) Phi tensors against their defining contraction on a random S
    rng = random.Random(rng_seed)
    S = np.array([[rng.uniform(-1, 1) for _ in range(g.d)] for _ in range(g.d)])
    S = 0.5 * (S + S.T)
    H0 = tan.H0

    def vec(F):
        """The chart vectors F(E_a, E_b) = sum_i eps_i F[a, b, i] E_i in D."""
        return np.einsum("...i,...abi,...is->...abs", perp.eps, F, g.F[..., n:, :])

    def direct(F):
        """sum eps_a eps_b S(F(E_a, E_b), F(E_a, E_b))."""
        v = vec(F)
        return _scalar(np.einsum("...a,...b,...abs,st,...abt->...", tan.eps, tan.eps, v, S, v))

    direct_h = form(H0, S, H0) - direct(tan.h)
    direct_T = -direct(tan.T)
    S_frame = g.F @ S @ g.F.mT
    res["phi_h_identity"] = abs(g.frame_pairing(tan.phi_h, S_frame) - direct_h)
    res["phi_T_identity"] = abs(g.frame_pairing(tan.phi_T, S_frame) - direct_T)

    # (E-divN) with a seeded random complement-valued field
    xi = random_perp_field(g, rng_seed)
    xi0 = values(xi)
    res["div_perp_vector"] = abs(
        g.div_vector(xi, mode="perp") - (g.div_vector(xi) + form(xi0, g.g0, H0)))

    # (E-divP) with P = h (complement-valued (1,2) tensor), tangent block
    hfield = tan.h_field
    lhsP = g.to_frame02(g.div_12(hfield, mode="perp"))[..., :n, :n]
    rhsP = g.to_frame02(g.div_12(hfield, mode="full"))[..., :n, :n]
    pair_hH = np.einsum("...abs,...st,...t->...ab", vec(tan.h), g.g0, H0)
    res["div_perp_tensor"] = worst(lhsP - rhsP - pair_hH)

    res["max"] = _scalar(np.max(list(res.values()), axis=0))
    return res
