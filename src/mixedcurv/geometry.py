"""Extrinsic geometry of an adapted splitting at a chart point.

One evaluation pass drives everything: the metric (and the distribution's
spanning fields) are evaluated on order-2 jets, the adapted frame is built by
Gram-Schmidt *on jets*, and every first-derivative tensor (second fundamental
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
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import SingularEvaluationError, SpecializationError
from .jets import (ArrayJet, Jet, concatenate, dense, dshift, gradients, order1, seed,
                   tensordot, value_of, values)
from .structure import DEGENERACY_TOL, orthonormal_frame


def jet_matrix_inverse(M, d, point=None):
    """Gauss-Jordan inverse over jet scalars, pivoting on absolute values.

    An array jet of shape B + (d, d) is a batch of matrices: each matrix of
    the batch chooses its own pivot rows by the scalar rule and takes the
    same arithmetic steps as the scalar loop."""
    if isinstance(M, ArrayJet):
        return _dense_matrix_inverse(M, d, point)
    A = [[M[i][j] for j in range(d)] for i in range(d)]
    I = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    # each pivot is judged against the largest entry of its own input row
    scale = [max(abs(value_of(x)) for x in row) for row in A]
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(value_of(A[r][col])))
        if abs(value_of(A[piv][col])) <= 1e-14 * scale[piv]:
            raise SingularEvaluationError("singular metric", point=point)
        A[col], A[piv] = A[piv], A[col]
        I[col], I[piv] = I[piv], I[col]
        scale[col], scale[piv] = scale[piv], scale[col]
        inv = 1.0 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        I[col] = [x * inv for x in I[col]]
        for r in range(d):
            f = A[r][col]
            if r != col and (isinstance(f, Jet) or f != 0.0):
                A[r] = [A[r][j] - f * A[col][j] for j in range(d)]
                I[r] = [I[r][j] - f * I[col][j] for j in range(d)]
    return I


def _dense_matrix_inverse(A, d, point):
    """``jet_matrix_inverse`` of an array jet of shape B + (d, d): the pivot
    search, its singularity test and the row swap run per matrix of B.  The
    row operations act on the augmented rows [A | I]."""
    batch = A.shape[:-2]
    k = len(batch)
    at = tuple(ix[..., None] for ix in np.indices(batch, sparse=True))
    eye = np.broadcast_to(np.eye(d), A.shape)
    X = concatenate((A, A * 0.0 + eye), axis=k + 1)
    scale = np.max(np.abs(values(A)), axis=-1)
    for col in range(d):
        mag = np.abs(values(X)[..., col:, col])
        piv = col + np.argmax(mag, axis=-1)        # the first largest, as max() picks
        if np.any(mag.max(axis=-1)
                  <= 1e-14 * np.take_along_axis(scale, piv[..., None], -1)[..., 0]):
            raise SingularEvaluationError("singular metric", point=point)
        if np.any(piv != col):
            perm = np.array(np.broadcast_to(np.arange(d), batch + (d,)))
            np.put_along_axis(perm, piv[..., None], col, -1)
            perm[..., col] = piv
            X = X[at + (perm,)]
            scale = np.take_along_axis(scale, perm, -1)
        # X[r] - X[r][col] X[col] on every row, then the scaled pivot row at col
        row = X[..., col, :] * (1.0 / X[..., col, col])[..., None]
        upd = X - X[..., :, col][..., None] * row[..., None, :]
        X = concatenate((upd[..., :col, :], row[..., None, :], upd[..., col + 1:, :]), axis=k)
    return X[..., :, d:]


class PointGeometry:
    """Geometry bundle of (structure, metric) at one interior chart point.

    ``metric_fn``/``dtilde_fn`` default to the structure's own expressions;
    passing replacements evaluates a modified metric (variations, conformal
    changes, block rescalings) over the same distribution.
    """

    def __init__(self, struct, point, metric_fn=None, dtilde_fn=None, check_domain=True):
        self.struct = struct
        self.point = tuple(float(x) for x in point)
        if check_domain:
            struct.require_inside(self.point)
        self.d = struct.dim
        self.n = struct.n
        self.p = struct.dim - struct.n
        self._metric_fn = metric_fn or struct.metric_at
        self._dtilde_fn = dtilde_fn or struct.dtilde_at

    # ------------------------------------------------------------------
    # jets of the raw data

    @cached_property
    def seeds(self):
        return seed(self.point, 2)

    @cached_property
    def gJ(self):
        """The metric as an order-2 jet field."""
        try:
            rows = self._metric_fn(self.seeds)
        except SingularEvaluationError as exc:
            if exc.point is None:
                raise SingularEvaluationError(str(exc), point=self.point) from exc
            raise
        return dense(rows, self.d)

    @cached_property
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
        dg = dshift(self.gJ, self.d)                          # [m][t][nu]
        # dsym[t][m][nu] = d_m g_{t nu} + d_nu g_{t m} - d_t g_{m nu}
        dsym = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
        return 0.5 * tensordot(self.ginvJ, dsym, axes=(1, 0))

    @cached_property
    def frameJ(self):
        return orthonormal_frame(self.gJ, self._dtilde_fn(self.seeds), self.d,
                                 point=self.point)

    @cached_property
    def eps(self):
        return np.array(self.frameJ.signs)

    @cached_property
    def framevecsJ(self):
        """Frame vectors e_a (rows) as an order-2 jet field, tangent block first."""
        return concatenate((self.frameJ.E, self.frameJ.Eperp))

    # The field algebra: jet tensor fields are array jets of order 1, and
    # every contraction is a two-operand ``@`` or ``tensordot``.

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
        dE = dshift(self.framevecsJ, self.d)                     # [m][a][s]
        return dE.transpose(1, 0, 2) + (self.GammaJ @ self.frame1.T).transpose(2, 1, 0)

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
        det = float(np.linalg.det(self.g0))
        if det == 0.0:
            raise SingularEvaluationError("degenerate metric", point=self.point)
        return math.sqrt(abs(det))

    # ------------------------------------------------------------------
    # curvature

    @cached_property
    def Rcoord(self):
        """R(d_mu, d_nu) d_gamma = Rcoord[sigma, mu, nu, gamma] d_sigma."""
        dG = gradients(self.GammaJ, self.d)
        G = self.Gamma0
        R = np.einsum("nsmg->smng", dG) - np.einsum("msng->smng", dG)
        R += np.einsum("snk,kmg->smng", G, G) - np.einsum("smk,kng->smng", G, G)
        return R

    @cached_property
    def R04(self):
        return np.einsum("smng,sd->mngd", self.Rcoord, self.g0)

    @cached_property
    def R4(self):
        """Frame components g(R(e_a, e_b) e_c, e_d)."""
        R = self.R04                   # each pass turns the leading index into a frame one
        for _ in range(4):
            R = np.tensordot(R, self.F, axes=(0, 1))
        return R

    def riemann(self, X, Y, Z):
        """R(X, Y) Z for chart-component vectors, as chart components."""
        X, Y, Z = (np.asarray(v, dtype=float) for v in (X, Y, Z))
        return np.einsum("smng,m,n,g->s", self.Rcoord, X, Y, Z)

    def sectional(self, X, Y):
        X, Y = np.asarray(X, float), np.asarray(Y, float)
        gXX = X @ self.g0 @ X
        gYY = Y @ self.g0 @ Y
        gXY = X @ self.g0 @ Y
        W = gXX * gYY - gXY * gXY
        # judged against the size W would have without cancellation
        if abs(W) <= DEGENERACY_TOL * (abs(gXX * gYY) + gXY * gXY):
            raise SingularEvaluationError("degenerate plane section", point=self.point)
        return float(self.riemann(X, Y, X) @ self.g0 @ Y / W)

    @cached_property
    def smix(self):
        n, e = self.n, self.eps
        acc = 0.0
        for a in range(n):
            for i in range(n, self.d):
                acc += e[a] * e[i] * self.R4[a, i, a, i]
        return float(acc)

    @cached_property
    def ricci_frame(self):
        """Ric(e_a, e_b) = sum_l eps_l g(R(e_a, e_l) e_b, e_l)."""
        return np.einsum("l,albl->ab", self.eps, self.R4)

    @property
    def ric_N(self):
        if self.n != 1:
            raise SpecializationError("Ric_N is reported only for rank-one D-tilde")
        return float(self.ricci_frame[0, 0])

    @cached_property
    def jacobi_N(self):
        """(R_N)-flat on the complement block: g(R(N, E_i) N, E_j), n = 1."""
        if self.n != 1:
            raise SpecializationError("the Jacobi operator needs rank-one D-tilde")
        p = self.p
        return np.array([[self.R4[0, 1 + i, 0, 1 + j] for j in range(p)]
                         for i in range(p)])

    # ------------------------------------------------------------------
    # float frame algebra

    def lam(self, Pb, Qb):
        """Lambda_{P,Q}: the symmetric frame (0,2) tensor defined by
        <Lambda_{P,Q}, S> = sum eps eps [S(P, Q) + S(Q, P)]."""
        e = self.eps
        E = np.einsum("l,m,lmk,lmn->kn", e, e, Pb, Qb)
        return E + E.T

    # ------------------------------------------------------------------
    # divergences and derivative-bearing tensors

    def nabla_vec_values(self, VJ):
        """(nabla_m V)^s float matrix from a jet vector field."""
        dV = gradients(VJ, self.d).T
        return dV + np.einsum("smn,n->sm", self.Gamma0, values(VJ))

    def div_vector(self, VJ, mode="full"):
        nabla = self.nabla_vec_values(VJ)
        if mode == "full":
            return float(np.trace(nabla))
        W = self._weight(mode)
        return float(np.einsum("ms,sm->", W, nabla))

    def _weight(self, mode):
        """W[m, s] = sum_block eps e^m (e-flat)_s."""
        if mode not in ("tan", "perp"):
            raise SpecializationError(f"unknown divergence mode {mode!r}")
        W = np.zeros((self.d, self.d))
        for k in getattr(self, mode).idx:
            W += self.eps[k] * np.outer(self.F[k], self.Fb[k])
        return W

    def nabla12_values(self, PJ):
        """(nabla_m P)^s_{nu rho} float array from a (1,2) jet field."""
        G = self.Gamma0
        P0 = values(PJ)
        out = gradients(PJ, self.d) + np.einsum("smk,knr->msnr", G, P0)
        out -= np.einsum("kmn,skr->msnr", G, P0)
        out -= np.einsum("kmr,snk->msnr", G, P0)
        return out

    def div_12(self, PJ, mode="full"):
        """Divergence of a (1,2) jet tensor field, chart (0,2) components."""
        nab = self.nabla12_values(PJ)
        W = np.eye(self.d) if mode == "full" else self._weight(mode)
        return np.einsum("msnr,ms->nr", nab, W)

    def div_11(self, SJ, mode="perp"):
        """(div S) 1-form chart components for a (1,1) jet field."""
        d = self.d
        G = self.Gamma0
        S0 = values(SJ)
        nab = (gradients(SJ, d) + np.einsum("smk,kn->msn", G, S0)
               - np.einsum("kmn,sk->msn", G, S0))
        W = np.eye(d) if mode == "full" else self._weight(mode)
        return np.einsum("msn,ms->n", nab, W)

    def to_frame02(self, coord02):
        return self.F @ np.asarray(coord02) @ self.F.T

    def frame_pairing(self, C_frame, B_frame):
        """<C, B> = sum eps eps C(e_k, e_l) B(e_k, e_l), frame components."""
        return float(np.einsum("k,l,kl,kl->", self.eps, self.eps, C_frame, B_frame))

    def nabla02_in_direction(self, TJ, X0):
        """(nabla_X T) chart components for a (0,2) jet field and float X."""
        G = self.Gamma0
        T0 = values(TJ)
        nab = gradients(TJ, self.d) - np.einsum("kmn,kr->mnr", G, T0) - np.einsum("kmr,nk->mnr", G, T0)
        return np.einsum("mnr,m->nr", nab, np.asarray(X0, float))

    def pair_vec_12(self, Pb_full, Vb_frame):
        """(0,2) frame tensor g(P(e_l, e_m), V) from flat comps of P and V."""
        return np.einsum("lmk,k,k->lm", np.asarray(Pb_full), self.eps,
                         np.asarray(Vb_frame))

    # ------------------------------------------------------------------

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
    if isinstance(v, np.ndarray):
        return v.tolist()
    return list(v) if isinstance(v, list) else v


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
        return self.g.frame1[self.sl]

    @property
    def flat1(self):
        return self.g.flat1[self.sl]

    def project(self, V):
        """The block part sum eps_a g(V, E_a) E_a of a jet vector field."""
        return (self.flat1 @ V * self.eps) @ self.frame1

    @cached_property
    def nabla_EE(self):
        """nabla_{E_a} E_b, index order [a][b][s]."""
        return tensordot(self.frame1, self.g.nabla_frame[self.sl], axes=(1, 1))

    # ------------------------------------------------------------------
    # fundamental forms

    @cached_property
    def ffJ(self):
        """Frame scalars of the fundamental forms, as jets.

        (h, T) with h[a][b][i] = g(h(E_a, E_b), E_i) and T its antisymmetric
        counterpart; pairing with the dual frame vectors performs the block
        projection.
        """
        W = self.nabla_EE @ self.dual.flat1.T        # g(nabla_{E_a} E_b, E_i)
        Wt = W.transpose(1, 0, 2)
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
        return (self.ffJ[0].diagonal() @ self.eps * dual.eps) @ dual.frame1

    @cached_property
    def H0(self):
        return values(self.HJ)

    @cached_property
    def Hb_frame(self):
        return self.g.Fb @ self.H0

    # ------------------------------------------------------------------
    # scalar invariants

    def _norm(self, F):
        e, de = np.array(self.eps), np.array(self.dual.eps)
        return float(np.einsum("a,b,i,abi,abi->", e, e, de, F, F))

    @cached_property
    def norm_h(self):
        return self._norm(self.h)

    @cached_property
    def norm_T(self):
        return self._norm(self.T)

    @cached_property
    def gHH(self):
        return float(self.H0 @ self.g.g0 @ self.H0)

    @property
    def s_ex(self):
        return self.gHH - self.norm_h

    @cached_property
    def div_H(self):
        return self.g.div_vector(self.HJ)

    # ------------------------------------------------------------------
    # Weingarten-type operators (float matrices, frame basis; column = input)

    def _ops(self, F):
        m, e = self.dim, self.eps
        return [np.array([[e[b] * F[a, b, i] for a in range(m)] for b in range(m)])
                for i in range(self.dual.dim)]

    @cached_property
    def A_ops(self):
        return self._ops(self.h)

    @cached_property
    def Tsharp_ops(self):
        return self._ops(self.T)

    def _dual_sum(self, term):
        """sum_i eps_i term(i) over the dual frame."""
        dual = self.dual
        out = np.zeros((self.dim, self.dim))
        for i in range(dual.dim):
            out += dual.eps[i] * term(i)
        return out

    @cached_property
    def casorati(self):
        A = self.A_ops
        return self._dual_sum(lambda i: A[i] @ A[i])

    @cached_property
    def tcal(self):
        T = self.Tsharp_ops
        return self._dual_sum(lambda i: T[i] @ T[i])

    @cached_property
    def kcal(self):
        A, T = self.A_ops, self.Tsharp_ops
        return self._dual_sum(lambda i: T[i] @ A[i] - A[i] @ T[i])

    def flat(self, op):
        """(0,2) frame form of an operator acting on the block."""
        m = self.dim
        return np.array([[self.eps[b] * op[b, a] for b in range(m)] for a in range(m)])

    @cached_property
    def psi(self):
        """Psi(E_i, E_j) = Tr(A_j A_i + T#_j T#_i), indexed by the dual."""
        q, A, T = self.dual.dim, self.A_ops, self.Tsharp_ops
        out = np.zeros((q, q))
        for i in range(q):
            for j in range(q):
                out[i, j] = np.trace(A[j] @ A[i] + T[j] @ T[i])
        return out

    @cached_property
    def r(self):
        """Partial Ricci tensor of the block, frame components."""
        m, e, R4, dual_idx = self.dim, self.g.eps, self.g.R4, self.dual.idx
        out = np.zeros((m, m))
        for a, A in enumerate(self.idx):
            for b, B in enumerate(self.idx):
                out[a, b] = sum(e[k] * R4[k, A, k, B] for k in dual_idx)
        return out

    # ------------------------------------------------------------------
    # (1,2)-tensors in full-frame flat components

    def _full(self, F):
        k = self.g.d
        out = np.zeros((k, k, k))
        out[self.sl, self.sl, self.dual.sl] = F
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
        out = np.zeros((k, k, k))
        half = 0.5 * F                       # g(F#_i E_a, E_b)/2 at [a, b, i]
        out[self.sl, dsl, self.sl] = half.transpose(0, 2, 1)
        out[dsl, self.sl, self.sl] = half.transpose(2, 0, 1)
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
        return np.outer(self.Hb_frame, self.Hb_frame) - 0.5 * g.lam(self.hb_full, self.hb_full)

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
        half = _field12(0.5 * FJ.transpose(2, 0, 1), self.dual, self, self)
        return half + half.transpose(0, 2, 1)

    @cached_property
    def alpha_field(self):
        return self._mixed_field(self.ffJ[0])

    @cached_property
    def theta_field(self):
        return self._mixed_field(self.ffJ[1])

    def _normal_op_field(self, FJ):
        """F#_N as a (1,1) chart jet field, N the unit field of a rank-one dual."""
        self.dual._rank_one("an operator field along N")
        C = FJ[:, :, 0] * np.outer(self.eps, self.eps)
        return self.frame1.T @ (C.T @ self.flat1)

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
        return self.ffJ[0][:, :, 0].diagonal() @ self.eps

    @cached_property
    def nabla_N_hsc(self):
        """nabla_N h_sc in block frame components, N the unit field of a
        rank-one dual and h_sc = eps_N g(h, N) the scalar second fundamental
        form, with N-flat the jet field ``flat1``: its derivatives enter the
        covariant derivative."""
        self.dual._rank_one("nabla_N h_sc")
        g, k = self.g, self.dual.idx[0]
        hscJ = self.dual.eps[0] * tensordot(g.flat1[k], self.h_field, axes=(0, 0))
        F = g.F[self.sl]
        return F @ g.nabla02_in_direction(hscJ, g.F[k]) @ F.T

    @cached_property
    def unit_J(self):
        """The frame field of a rank-one block, jet chart components."""
        self._rank_one("a unit field")
        return self.frame1[0]

    # ------------------------------------------------------------------
    # block tensors built from derivatives

    @cached_property
    def pair_tensor_vec(self):
        """<h, H>(E_a, E_b) = g(h(E_a, E_b), H) on the block."""
        dual, m = self.dual, self.dim
        H_dual = self.g.Fb[dual.sl] @ self.H0
        out = np.zeros((m, m))
        for a in range(m):
            for b in range(m):
                out[a, b] = sum(dual.eps[i] * self.h[a, b, i] * H_dual[i]
                                for i in range(dual.dim))
        return out

    def _nabla_pairs(self, ZJ, cols):
        """g(nabla_{E_a} Z, e_k) for the block's E_a and the frame's e_k, k in cols."""
        g = self.g
        nabla = g.nabla_vec_values(ZJ)
        nus = [np.einsum("sm,m->s", nabla, g.F[u]) for u in self.idx]
        return np.array([[g.Fb[k] @ nu for k in cols] for nu in nus])

    def def_of(self, ZJ):
        """Def Z: symmetrized nabla Z on the block, frame components."""
        M = self._nabla_pairs(ZJ, self.idx)
        return 0.5 * (M + M.T)

    def delta_of(self, ZJ):
        """delta_Z on (block, dual) pairs, g(nabla_{E_a} Z, E_i)/2 (delta~ of
        the paper on ``tan``)."""
        return 0.5 * self._nabla_pairs(ZJ, self.dual.idx)


def _field12(C, X, Y, Z):
    """The (1,2) chart jet field P with frame components C[x][y][z] =
    g(P(E_x, E_y), E_z) for E_x, E_y, E_z in the blocks X, Y, Z, and zero
    on every other triple of frame vectors."""
    w = np.multiply.outer(np.multiply.outer(X.eps, Y.eps), Z.eps)
    P = (C * w) @ Z.frame1                                   # [x][y][s]
    P = tensordot(P, Y.flat1, axes=(1, 0))                   # [x][s][rho]
    return tensordot(X.flat1, P, axes=(0, 0)).transpose(1, 0, 2)


# ----------------------------------------------------------------------
# module-level operations

def riemann(struct, point, X, Y, Z, metric_fn=None):
    return PointGeometry(struct, point, metric_fn=metric_fn).riemann(X, Y, Z)


def mixed_scalar(struct, point, metric_fn=None):
    return PointGeometry(struct, point, metric_fn=metric_fn).smix


def partial_ricci(struct, point, side="perp", metric_fn=None):
    if side not in ("perp", "tan"):
        raise SpecializationError(f"unknown side {side!r}")
    return getattr(PointGeometry(struct, point, metric_fn=metric_fn), side).r


def divergence(struct, point, field, mode="full", metric_fn=None):
    """Divergence of a user field along the chart.

    ``field(geom)`` must return jet chart components built from the bundle
    (a length-d vector or a d*d*d (1,2)-tensor); the adapted frame at the
    displaced jet points is available through ``geom``.  Vector fields give a
    scalar, (1,2)-tensors a (0,2) chart matrix.  ``mode`` selects the full
    trace or the block-restricted sums ('perp' / 'tan')."""
    geom = PointGeometry(struct, point, metric_fn=metric_fn)
    P = field(geom)
    if np.ndim(values(P)) == 3:
        return geom.div_12(P, mode=mode)
    return geom.div_vector(P, mode=mode)


def smix_density_fast(struct, point, metric_fn=None):
    """(S_mix, sqrt|det g|) without frames; quadrature inner loop."""
    geom = PointGeometry(struct, point, metric_fn=metric_fn, check_domain=False)
    Wm = values(geom._dtilde_fn(geom.seeds)).T
    g0 = geom.g0
    gram = Wm.T @ g0 @ Wm
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise SingularEvaluationError("degenerate distribution", point=geom.point)
    PiT = Wm @ gram_inv @ Wm.T
    PiP = geom.ginv0 - PiT
    smix = float(np.einsum("mg,nd,mngd->", PiT, PiP, geom.R04))
    return smix, geom.volume_density


# Quadrature nodes are evaluated in chunks of at most BATCH_ELEMENTS // d**4
# nodes, so that the largest arrays of a chunk, the second metric derivatives
# and the Riemann tensor of shape (nodes, d, d, d, d), hold about
# BATCH_ELEMENTS floats.
BATCH_ELEMENTS = 1 << 16


def node_chunks(pts, d, chunk_fn, node_fn):
    """Values at every node of ``pts``, in node order, chunk by chunk.

    ``chunk_fn`` maps an (N, d) array of nodes to an array with a leading
    node axis.  A chunk where it raises :class:`SingularEvaluationError` or
    gives a non-finite value is evaluated again node by node through
    ``node_fn(pt)``, so an error surfaces as that function raises it, with its
    message and point."""
    size = max(1, BATCH_ELEMENTS // d ** 4)
    out = []
    for lo in range(0, len(pts), size):
        chunk = pts[lo:lo + size]
        try:
            with np.errstate(all="ignore"):
                vals = chunk_fn(np.array(chunk, dtype=float))
            ok = np.isfinite(vals).all()
        except SingularEvaluationError:
            ok = False
        out.extend(vals.tolist() if ok else [node_fn(pt) for pt in chunk])
    return out


def smix_density_batch(struct, pts, metric_fn=None):
    """(S_mix, sqrt|det g|) arrays at the nodes ``pts``, as
    :func:`smix_density_fast` gives them node by node; that function stays
    the reference and the error path."""
    out = node_chunks(pts, struct.dim,
                      lambda c: np.stack(_smix_density_nodes(struct, c, metric_fn), axis=1),
                      lambda pt: smix_density_fast(struct, pt, metric_fn))
    return tuple(np.array(out, dtype=float).reshape(len(pts), 2).T)


def _smix_density_nodes(struct, pts, metric_fn):
    """(S_mix, sqrt|det g|) at an (N, d) array of nodes, as arrays.

    The chain of :func:`smix_density_fast` on array jets: metric jets,
    order-1 inverse, Christoffel symbols, Riemann tensor and S_mix by the
    projector formula.  The index letter z runs over the nodes."""
    d = pts.shape[1]
    xs = seed(pts, 2)
    gJ = (metric_fn or struct.metric_at)(xs)                # [z][t][n]
    g0 = values(gJ)
    ginvJ = jet_matrix_inverse(order1(gJ), d)
    ginv, dginv = values(ginvJ), gradients(ginvJ, d)        # dginv [l][z][s][t]
    # dsym[z][t][m][n] = d_m g_{tn} + d_n g_{tm} - d_t g_{mn}, as order-1 jets
    dgJ = dshift(gJ, d)                                     # [m][z][t][n]
    dsymJ = dgJ.transpose(1, 2, 0, 3) + dgJ.transpose(1, 2, 3, 0) - dgJ.transpose(1, 0, 2, 3)
    dsym, ddsym = values(dsymJ), gradients(dsymJ, d)        # ddsym [l][z][t][m][n]
    G = 0.5 * np.einsum("zst,ztmn->zsmn", ginv, dsym)
    dG = 0.5 * (np.einsum("lzst,ztmn->zlsmn", dginv, dsym)
                + np.einsum("zst,lztmn->zlsmn", ginv, ddsym))
    # Rcoord at every node
    R = np.einsum("znsmg->zsmng", dG) - np.einsum("zmsng->zsmng", dG)
    R += np.einsum("zsnk,zkmg->zsmng", G, G) - np.einsum("zsmk,zkng->zsmng", G, G)
    R04 = np.einsum("zsmng,zsd->zmngd", R, g0)
    Wm = values(struct.dtilde_at(xs)).transpose(0, 2, 1)
    try:
        gram_inv = np.linalg.inv(Wm.transpose(0, 2, 1) @ g0 @ Wm)
    except np.linalg.LinAlgError:
        raise SingularEvaluationError("degenerate distribution") from None
    PiT = Wm @ gram_inv @ Wm.transpose(0, 2, 1)
    smix = np.einsum("zmg,znd,zmngd->z", PiT, ginv - PiT, R04)
    det = np.linalg.det(g0)
    if (det == 0.0).any():
        raise SingularEvaluationError("degenerate metric")
    return smix, np.sqrt(np.abs(det))


def random_perp_field(geom, rng_seed):
    """Deterministic smooth complement-valued field, jet chart components."""
    rng = random.Random(rng_seed)
    C = np.array([[rng.uniform(-1, 1) for _ in range(geom.d + 1)]
                  for _ in range(geom.p)])
    c = C[:, 0] + C[:, 1:] @ order1(dense(geom.seeds, geom.d))  # affine coefficients
    return c @ geom.perp.frame1


def identity_suite(struct, point, metric_fn=None, rng_seed=7):
    """Residual norms of the structural identities; each equation's two sides
    travel independent code paths (curvature vs. first-derivative assembly)."""
    g = PointGeometry(struct, point, metric_fn=metric_fn)
    tan, perp = g.tan, g.perp
    n, p = g.n, g.p
    res = {}

    # (a) partial Ricci tensor vs the divergence identity, complement block
    div_ht = g.to_frame02(g.div_12(perp.h_field, mode="full"))[n:, n:]
    rhs = (div_ht + perp.pair_tensor_vec - perp.flat(perp.casorati)
           - perp.flat(perp.tcal) - tan.psi + perp.def_of(tan.HJ))
    res["partial_ricci_identity"] = float(np.max(np.abs(perp.r - rhs)))

    # (b) S_mix from extrinsic invariants
    res["smix_decomposition"] = abs(
        g.smix - (tan.s_ex + perp.s_ex + tan.norm_T + perp.norm_T
                  + tan.div_H + perp.div_H))

    # (c) trace of the partial Ricci tensor
    trace_r = sum(perp.eps[i] * perp.r[i, i] for i in range(p))
    res["partial_ricci_trace"] = abs(trace_r - g.smix)

    # (d) trace of Psi
    tr_psi = sum(perp.eps[i] * tan.psi[i, i] for i in range(p))
    res["psi_trace"] = abs(tr_psi - tan.norm_h + tan.norm_T)

    # (e) trace of Def_D H
    defH = perp.def_of(tan.HJ)
    tr_def = sum(perp.eps[i] * defH[i, i] for i in range(p))
    res["def_trace"] = abs(tr_def - tan.div_H - tan.gHH)

    # (f) traceless commutator operators
    res["kcal_trace"] = abs(float(np.trace(tan.kcal))) + abs(float(np.trace(perp.kcal)))

    # (g) Phi tensors against their defining contraction on a random S
    rng = random.Random(rng_seed)
    S = np.array([[rng.uniform(-1, 1) for _ in range(g.d)] for _ in range(g.d)])
    S = 0.5 * (S + S.T)
    H0 = tan.H0
    direct_h = float(H0 @ S @ H0)
    direct_T = 0.0
    for a in range(n):
        for b in range(n):
            vh = sum(perp.eps[i] * tan.h[a, b, i] * g.F[n + i] for i in range(p))
            vT = sum(perp.eps[i] * tan.T[a, b, i] * g.F[n + i] for i in range(p))
            e = tan.eps[a] * tan.eps[b]
            direct_h -= e * float(vh @ S @ vh)
            direct_T -= e * float(vT @ S @ vT)
    S_frame = g.F @ S @ g.F.T
    res["phi_h_identity"] = abs(g.frame_pairing(tan.phi_h, S_frame) - direct_h)
    res["phi_T_identity"] = abs(g.frame_pairing(tan.phi_T, S_frame) - direct_T)

    # (E-divN) with a seeded random complement-valued field
    xi = random_perp_field(g, rng_seed)
    xi0 = values(xi)
    res["div_perp_vector"] = abs(
        g.div_vector(xi, mode="perp") - (g.div_vector(xi) + float(xi0 @ g.g0 @ H0)))

    # (E-divP) with P = h (complement-valued (1,2) tensor), tangent block
    hfield = tan.h_field
    lhsP = g.to_frame02(g.div_12(hfield, mode="perp"))[:n, :n]
    rhsP = g.to_frame02(g.div_12(hfield, mode="full"))[:n, :n]
    pair_hH = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            vec = sum(perp.eps[i] * tan.h[a, b, i] * g.F[n + i] for i in range(p))
            pair_hH[a, b] = float(vec @ g.g0 @ H0)
    res["div_perp_tensor"] = float(np.max(np.abs(lhsP - rhsP - pair_hH)))

    res["max"] = max(res.values())
    return res
