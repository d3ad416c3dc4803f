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
from .jets import (Jet, dshift, gradients, jsum, order1, promote, seed, value_of,
                   values)
from .structure import orthonormal_frame


def jet_matrix_inverse(M, d, point=None):
    """Gauss-Jordan inverse over jet scalars, pivoting on absolute values."""
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
            if r == col:
                continue
            f = A[r][col]
            if isinstance(f, Jet) or f != 0.0:
                A[r] = [A[r][j] - f * A[col][j] for j in range(d)]
                I[r] = [I[r][j] - f * I[col][j] for j in range(d)]
    return I


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
        d = self.d
        try:
            rows = self._metric_fn(self.seeds)
        except SingularEvaluationError as exc:
            if exc.point is None:
                raise SingularEvaluationError(str(exc), point=self.point) from exc
            raise
        return [[promote(rows[i][j], d) for j in range(d)] for i in range(d)]

    @cached_property
    def ginvJ(self):
        return jet_matrix_inverse(self.gJ, self.d, point=self.point)

    @cached_property
    def GammaJ(self):
        """Christoffel symbols as order-1 jets; index order [sigma][mu][nu].

        Built from dshift of the metric jets, so the jet gradient of an entry
        is the chart derivative of that Christoffel symbol.
        """
        d, g, ginv = self.d, self.gJ, self.ginvJ
        dg = [[[dshift(g[m][nn], r) for nn in range(d)] for m in range(d)]
              for r in range(d)]
        # dsym[t][m][nn] = d_m g_{t nn} + d_nn g_{t m} - d_t g_{m nn}
        dsym = [[[dg[m][t][nn] + dg[nn][t][m] - dg[t][m][nn]
                  for nn in range(d)] for m in range(d)] for t in range(d)]
        gi1 = [[order1(x) for x in row] for row in ginv]
        out = []
        for s in range(d):
            gs = gi1[s]
            mat = []
            for m in range(d):
                row = []
                for nn in range(d):
                    acc = gs[0] * dsym[0][m][nn]
                    for t in range(1, d):
                        acc = acc + gs[t] * dsym[t][m][nn]
                    row.append(0.5 * acc)
                mat.append(row)
            out.append(mat)
        return out

    @cached_property
    def frameJ(self):
        span = [[promote(c, self.d) for c in vec] for vec in self._dtilde_fn(self.seeds)]
        return orthonormal_frame(self.gJ, span, self.d, point=self.point)

    @cached_property
    def eps(self):
        return np.array(self.frameJ.signs)

    @cached_property
    def framevecsJ(self):
        return list(self.frameJ.vectors)

    # order-1 views used by the field algebra
    @cached_property
    def g1(self):
        return [[order1(x) for x in row] for row in self.gJ]

    @cached_property
    def frame1(self):
        return [[order1(c) for c in vec] for vec in self.framevecsJ]

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
        F = self.F
        return np.einsum("am,bn,cg,dk,mngk->abcd", F, F, F, F, self.R04)

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
        if abs(W) < 1e-14:
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
    # first-derivative field algebra (order-1 jets throughout)

    def _nabla_matrix(self, VJ):
        """(nabla_m V)^s as order-1 jets, index order [m][s]."""
        d = self.d
        G = self.GammaJ
        V1 = [order1(x) for x in VJ]
        out = []
        for m in range(d):
            row = []
            for s in range(d):
                term = dshift(VJ[s], m)
                Gsm = G[s][m]
                for nn in range(d):
                    term = term + Gsm[nn] * V1[nn]
                row.append(term)
            out.append(row)
        return out

    def _nabla_vec(self, Xdir1, VJ, nabM=None):
        """nabla_X V chart components as order-1 jets."""
        d = self.d
        M = nabM if nabM is not None else self._nabla_matrix(VJ)
        out = []
        for s in range(d):
            acc = 0.0
            for m in range(d):
                acc = acc + Xdir1[m] * M[m][s]
            out.append(acc)
        return out

    @cached_property
    def _nabla_frame(self):
        """Covariant-derivative matrices of every frame field."""
        return [self._nabla_matrix(vec) for vec in self.framevecsJ]

    def cd(self, a, b):
        """nabla_{e_a} e_b, order-1 jet chart components (cached per pair)."""
        cache = self.__dict__.setdefault("_cd_cache", {})
        key = (a, b)
        if key not in cache:
            cache[key] = self._nabla_vec(self.frame1[a], None,
                                         nabM=self._nabla_frame[b])
        return cache[key]

    def inner1(self, U, V):
        """g(U, V) for order-1 jet chart components."""
        acc = 0.0
        for i in range(self.d):
            row = self.g1[i]
            ui = U[i]
            for j in range(self.d):
                acc = acc + ui * row[j] * V[j]
        return acc

    @cached_property
    def proj_tan1(self):
        """Orthogonal projector onto the distribution, as order-1 jets."""
        d, tan = self.d, self.tan
        P = [[0.0] * d for _ in range(d)]
        for a in range(tan.dim):
            ea = tan.frame1[a]
            eb = tan.flat1[a]
            s = tan.eps[a]
            for sig in range(d):
                esig = s * ea[sig]
                for nu in range(d):
                    P[sig][nu] = P[sig][nu] + esig * eb[nu]
        return P

    def project1(self, V, side):
        """Project jet vector components onto D-tilde ('tan') or D ('perp')."""
        P = self.proj_tan1
        d = self.d
        tang = [jsum(P[s][nu] * V[nu] for nu in range(d)) for s in range(d)]
        if side == "tan":
            return tang
        return [V[s] - tang[s] for s in range(d)]

    def _flat1(self, vec1):
        d = self.d
        return [jsum(self.g1[nu][k] * vec1[k] for k in range(d)) for nu in range(d)]

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
        return out, P0

    def div_12(self, PJ, mode="full"):
        """Divergence of a (1,2) jet tensor field, chart (0,2) components."""
        nab, _ = self.nabla12_values(PJ)
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

    @cached_property
    def frame1(self):
        return [self.g.frame1[k] for k in self.idx]

    @cached_property
    def flat1(self):
        return [self.g._flat1(e) for e in self.frame1]

    # ------------------------------------------------------------------
    # fundamental forms

    @cached_property
    def ffJ(self):
        """Frame scalars of the fundamental forms, as jets.

        (h, T) with h[a][b][i] = g(h(E_a, E_b), E_i) and T its antisymmetric
        counterpart; pairing with the dual frame vectors performs the block
        projection.
        """
        g, m, dual = self.g, self.dim, self.dual
        h = [[[None] * dual.dim for _ in range(m)] for _ in range(m)]
        T = [[[None] * dual.dim for _ in range(m)] for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                for i in range(dual.dim):
                    ei = dual.frame1[i]
                    u = g.inner1(g.cd(self.idx[a], self.idx[b]), ei)
                    w = g.inner1(g.cd(self.idx[b], self.idx[a]), ei)
                    h[a][b][i] = 0.5 * (u + w)
                    h[b][a][i] = h[a][b][i]
                    T[a][b][i] = 0.5 * (u - w)
                    T[b][a][i] = -1.0 * T[a][b][i]
        return h, T

    @cached_property
    def h(self):
        return values(self.ffJ[0])

    @cached_property
    def T(self):
        return values(self.ffJ[1])

    @cached_property
    def HJ(self):
        """Mean curvature vector field, jet chart components."""
        d, dual, hJ = self.g.d, self.dual, self.ffJ[0]
        out = [0.0] * d
        for a in range(self.dim):
            for i in range(dual.dim):
                c = self.eps[a] * dual.eps[i] * hJ[a][a][i]
                ei = dual.frame1[i]
                for s in range(d):
                    out[s] = out[s] + c * ei[s]
        return out

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
        g, d = self.g, self.g.d
        out = _zeros3(d)
        for a in range(self.dim):
            for b in range(a, self.dim):
                A, B = self.idx[a], self.idx[b]
                u, w = g.cd(A, B), g.cd(B, A)
                sym = [0.5 * (u[s] + w[s]) for s in range(d)]
                v = g.project1(sym, self.dual_side)
                e = self.eps[a] * self.eps[b]
                _accumulate12(out, v, self.flat1[a], self.flat1[b], e, d, sym_pair=(a != b))
        return out

    def _mixed_field(self, FJ):
        """alpha (F = h) or theta (F = T) as a (1,2) chart jet field."""
        d, dual = self.g.d, self.dual
        out = _zeros3(d)
        for i in range(dual.dim):
            for a in range(self.dim):
                vec = [0.0] * d
                for b in range(self.dim):
                    c = self.eps[b] * FJ[a][b][i]   # F#_i E_a along E_b
                    eb = self.frame1[b]
                    for s in range(d):
                        vec[s] = vec[s] + c * eb[s]
                half = [0.5 * x for x in vec]
                e = dual.eps[i] * self.eps[a]
                _accumulate12(out, half, dual.flat1[i], self.flat1[a], e, d, sym_pair=True)
        return out

    @cached_property
    def alpha_field(self):
        return self._mixed_field(self.ffJ[0])

    @cached_property
    def theta_field(self):
        return self._mixed_field(self.ffJ[1])

    def _normal_op_field(self, FJ):
        """F#_N as a (1,1) chart jet field, N the unit field of a rank-one dual."""
        self.dual._rank_one("an operator field along N")
        d = self.g.d
        out = [[0.0] * d for _ in range(d)]
        for a in range(self.dim):
            for b in range(self.dim):
                c = self.eps[a] * self.eps[b] * FJ[a][b][0]
                eb = self.frame1[b]
                for s in range(d):
                    cbs = c * eb[s]
                    for nu in range(d):
                        out[s][nu] = out[s][nu] + cbs * self.flat1[a][nu]
        return out

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
        acc = 0.0
        for a in range(self.dim):
            acc = acc + self.eps[a] * self.ffJ[0][a][a][0]
        return acc

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


def _zeros3(d):
    return [[[0.0] * d for _ in range(d)] for _ in range(d)]


def _accumulate12(out, vec, left_fl, right_fl, e, d, sym_pair):
    """out^s_{nu rho} += e * vec^s * left_nu * right_rho (+ mirrored pair)."""
    for nu in range(d):
        lnu = left_fl[nu]
        rnu = right_fl[nu]
        for rho in range(d):
            f = e * (lnu * right_fl[rho])
            if sym_pair:
                f = f + e * (rnu * left_fl[rho])
            for s in range(d):
                out[s][nu][rho] = out[s][nu][rho] + f * vec[s]


# ----------------------------------------------------------------------
# module-level operations

def christoffel(struct, point, metric_fn=None):
    return PointGeometry(struct, point, metric_fn=metric_fn).Gamma0


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
    values = field(geom)
    if values and isinstance(values[0], list):
        return geom.div_12(values, mode=mode)
    return geom.div_vector(values, mode=mode)


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


def random_perp_field(geom, rng_seed):
    """Deterministic smooth complement-valued field, jet chart components."""
    rng = random.Random(rng_seed)
    d, n, p = geom.d, geom.n, geom.p
    coeffs = [[rng.uniform(-1, 1) for _ in range(d + 1)] for _ in range(p)]
    xs = geom.seeds
    out = [0.0] * d
    for i in range(p):
        c = coeffs[i][0]
        for m in range(d):
            c = c + coeffs[i][m + 1] * order1(xs[m])
        vec = geom.frame1[n + i]
        for s in range(d):
            out[s] = out[s] + c * vec[s]
    return out


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
