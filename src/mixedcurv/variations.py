"""First-variation checks: metric families, frame evolution, action derivatives.

The left-hand side of every variation formula is measured by central finite
differences of the relevant scalar invariant along the metric family; the
right-hand side is assembled from the unvaried geometry bundle and the
infinitesimal variation, with every divergence evaluated through jets.  The
two sides never share a differentiation mechanism, so their agreement (and
its second-order convergence in the step) is evidence, not bookkeeping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import exprlang
from .errors import ClassificationError, SpecializationError, SupportError
from .geometry import (PointGeometry, _smix_density_nodes, jet_matrix_inverse,
                       node_chunks, smix_density_batch, smix_density_fast)
from .jets import as_field, dense, order1, seed, tensordot, value_of, values, where
from .euler_lagrange import (QuadratureSpec, _density, domain_mean, grid_points,
                             pairwise_sum, s_star, volume)

FD_STEPS = (1e-3, 5e-4, 2.5e-4)
ZERO_FLOOR = 5e-10


# ----------------------------------------------------------------------
# projector onto the distribution, closed form (no frame, jet-safe)

def tangent_projector_jets(struct, xs, metric_fn=None, gmat=None):
    """P[sigma][nu] of the g-orthogonal projector onto D-tilde, as an array
    jet: one matrix at a point, a stack of them at node seeds.

    ``gmat`` lets callers reuse an already evaluated metric matrix."""
    d = struct.dim
    g = dense(gmat if gmat is not None else (metric_fn or struct.metric_at)(xs), d)
    W = dense(struct.dtilde_at(xs), d)                   # n rows of d components
    Wg = W @ g
    ginv = jet_matrix_inverse(Wg @ W.mT, struct.n)
    return W.mT @ (ginv @ Wg)


# ----------------------------------------------------------------------
# metric variations

@dataclass
class MetricVariation:
    """A symmetric (0,2) field B and the one-parameter family g + t B.

    ``klass`` declares the block structure: 'perp' keeps the metric on the
    distribution fixed (B vanishes on the D-tilde x D-tilde block), 'tan'
    varies it only there, 'general' is unrestricted.  With ``project`` the
    raw entries are block-projected pointwise so the class holds by
    construction; without it :func:`classify` validates the declaration.
    """

    struct: object
    raw: list                       # d x d matrix of expression ASTs (symmetric)
    klass: str = "perp"
    project: bool = True
    box: tuple = None               # support box of the bump, if any
    seed: int = None
    params: dict = field(default_factory=dict)

    def raw_at(self, xs):
        d = self.struct.dim
        env = list(xs)
        pr = {**self.struct.params, **self.params}
        out = [[0.0] * d for _ in range(d)]
        mask = None
        if self.box is not None:
            # exact compact support: the window expressions vanish to high
            # order at the box faces, and outside the box the field is zero;
            # over array jets the test is made node by node
            inside = True
            for mu, (lo, hi) in enumerate(self.box):
                x = value_of(env[mu])
                inside = inside & (lo < x) & (x < hi)
            if not np.any(inside):
                return out
            if not np.all(inside):
                mask = inside
        for i in range(d):
            for j in range(i, d):
                v = exprlang.evaluate(self.raw[i][j], env, pr)
                if mask is not None:
                    v = where(mask, v, 0.0, d)
                out[i][j] = v
                if i != j:
                    out[j][i] = v
        return out

    def B_at(self, xs, metric_fn=None, gmat=None):
        """B as a field at ``xs``, as ``struct.metric_at`` gives the metric."""
        return as_field(self._field(xs, metric_fn, gmat), xs)

    def _field(self, xs, metric_fn, gmat):
        """B at the seeds ``xs`` as one array jet."""
        raw = self.raw_at(xs)
        B = dense(as_field(raw, xs), self.struct.dim)
        if not self.project or self.klass == "general":
            return B
        if all(isinstance(x, float) and x == 0.0 for row in raw for x in row):
            return B                      # outside the support: stay exactly zero
        P = tangent_projector_jets(self.struct, xs, metric_fn=metric_fn, gmat=gmat)
        PBP = P.mT @ (B @ P)
        if self.klass == "tan":
            return PBP
        if self.klass == "perp":
            return B - PBP
        raise ClassificationError(f"unknown variation class {self.klass!r}")

    def metric_fn(self, t, base_metric_fn=None):
        """The metric function of g + t B; it returns fields, as
        ``struct.metric_at`` does."""
        base = base_metric_fn or self.struct.metric_at
        if t == 0.0:
            return base

        def fam(xs):
            g = dense(base(xs), self.struct.dim)
            return as_field(g + t * self._field(xs, base_metric_fn, g), xs)

        return fam


def classify(v, points, tol=1e-12):
    """Block decomposition of the effective B; validates the declared class."""
    worst = {"tan": 0.0, "perp": 0.0, "mixed": 0.0}
    for pt in points:
        geom = PointGeometry(v.struct, pt)
        B0 = v.B_at(list(pt))
        Bfr = geom.F @ B0 @ geom.F.T
        n = geom.n
        worst["tan"] = max(worst["tan"], float(np.max(np.abs(Bfr[:n, :n]))))
        worst["perp"] = max(worst["perp"], float(np.max(np.abs(Bfr[n:, n:]))))
        worst["mixed"] = max(worst["mixed"], float(np.max(np.abs(Bfr[:n, n:]))))
    scale = max(1.0, *worst.values())
    if v.klass == "perp" and worst["tan"] > tol * scale:
        raise ClassificationError(
            f"declared perp-variation has a tangent block of size {worst['tan']:.2e}")
    if v.klass == "tan" and worst["perp"] + worst["mixed"] > tol * scale:
        raise ClassificationError(
            f"declared tan-variation leaks off the tangent block "
            f"(perp {worst['perp']:.2e}, mixed {worst['mixed']:.2e})")
    return worst


def random_variation(struct, klass, seed, box=None, degree=1):
    """Seeded bump-times-polynomial variation supported in ``box``."""
    rng = random.Random(seed)
    d = struct.dim
    if box is None:
        box = tuple((lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
                    for lo, hi in struct.domain)
    bump = None
    for mu, (lo, hi) in enumerate(box):
        mid, halfw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = exprlang.mul(exprlang.const(math.pi / (2.0 * halfw)),
                         exprlang.sub(exprlang.var(mu), exprlang.const(mid)))
        w = exprlang.powc(exprlang.call("cos", u), 4)
        bump = w if bump is None else exprlang.mul(bump, w)
    raw = [[exprlang.const(0.0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            poly = exprlang.const(rng.uniform(-1.0, 1.0))
            for k in range(degree):
                mu = rng.randrange(d)
                poly = exprlang.add(poly, exprlang.mul(
                    exprlang.const(rng.uniform(-1.0, 1.0)), exprlang.var(mu)))
            entry = exprlang.mul(bump, poly)
            raw[i][j] = entry
            raw[j][i] = entry
    return MetricVariation(struct=struct, raw=raw, klass=klass, box=box, seed=seed)


# ----------------------------------------------------------------------
# evolving adapted frames along a family

def evolve_frame(struct, v, point, t_end=0.1, steps=64, metric_fn=None):
    """4th-order integration of the adapted-frame evolution equations.

    Returns the frame path and the worst orthonormality/adaptedness drift,
    measured by recomputing g_t-inner-products directly at every grid time.
    """
    base = PointGeometry(struct, point, metric_fn=metric_fn)
    d, n = base.d, base.n
    frame = np.array(base.F, dtype=float)           # frame vectors as rows
    signs = base.eps
    B0 = v.B_at(list(point), metric_fn=metric_fn)
    g_base = base.g0
    W = struct.dtilde_at(list(point)).T

    def g_at(t):
        return g_base + t * B0

    def rhs(t, fr):
        gt = g_at(t)
        try:
            Bsharp = np.linalg.solve(gt, B0)
        except np.linalg.LinAlgError:
            raise SpecializationError(f"family degenerates at t={t}")
        X = fr @ Bsharp.T                           # B-sharp of every frame vector
        E = fr[:n]
        tan = ((X @ gt @ E.T) * signs[:n]) @ E      # and its part along D-tilde
        out = np.zeros((d, d))
        if v.klass in ("tan", "general"):
            out[:n] = -0.5 * tan[:n]
        if v.klass != "tan":
            out[n:] = -0.5 * (X[n:] - tan[n:]) - tan[n:]
        return out

    ts = [k * t_end / steps for k in range(steps + 1)]
    drift = 0.0
    path = [frame]
    WtW = np.linalg.pinv(W.T @ W) @ W.T
    for k in range(steps):
        t0, t1 = ts[k], ts[k + 1]
        h = t1 - t0
        k1 = rhs(t0, frame)
        k2 = rhs(t0 + h / 2, frame + h / 2 * k1)
        k3 = rhs(t0 + h / 2, frame + h / 2 * k2)
        k4 = rhs(t1, frame + h * k3)
        frame = frame + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        path.append(frame)
        G = frame @ g_at(t1) @ frame.T
        drift = max(drift, float(np.max(np.abs(G - np.diag(signs)))))
        E = frame[:n]
        drift = max(drift, float(np.max(np.abs(E - (E @ WtW.T) @ W.T))))
    return path, drift


# ----------------------------------------------------------------------
# first-variation formulas

@dataclass
class VariationReport:
    formula: str
    lhs_fd: list
    rhs: float
    discrepancies: list
    order: float        # None when both sides vanish
    verdict: bool

    def to_dict(self):
        return self.__dict__ | {"verdict": bool(self.verdict)}


# name -> (variation class, varied scalar as a bundle attribute path, block
# formula).  A block formula is an _RHS method on the block B that carries the
# variation; its dual A = B.dual keeps its metric.  A perp-variation has B = D
# and may have a mixed block; a tan-variation is a perp-variation of the
# swapped splitting (B = D-tilde) without one, so its formulas are their perp
# partners less the terms that pair with the mixed block.  s_ex = g(H, H) -
# |h|^2, so an s_ex formula is the difference of the two entries it names.
FORMULAS = {
    "E-tildeh-gen": ("perp", "perp.norm_h", "dnorm_h_B"),
    "E-tildeH-gen": ("perp", "perp.gHH", "dgHH_B"),
    "E-h-gen": ("perp", "tan.norm_h", "dnorm_h_A"),
    "E-H-gen": ("perp", "tan.gHH", "dgHH_A"),
    "E-tildeT-gen": ("perp", "perp.norm_T", "dnorm_T_B"),
    "E-T-gen": ("perp", "tan.norm_T", "dnorm_T_A"),
    "E-h2T2-D1": ("perp", "perp.s_ex", ("E-tildeH-gen", "E-tildeh-gen")),
    "E-h2T2-D1b": ("perp", "tan.s_ex", ("E-H-gen", "E-h-gen")),
    "E-tildeh-gen2": ("tan", "perp.norm_h", "dnorm_h_A"),
    "E-tildeH-gen2": ("tan", "perp.gHH", "dgHH_A"),
    "E-h-gen2": ("tan", "tan.norm_h", "dnorm_h_B"),
    "E-H-gen2": ("tan", "tan.gHH", "dgHH_B"),
    "E-tildeT-gen2": ("tan", "perp.norm_T", "dnorm_T_A"),
    "E-T-gen2": ("tan", "tan.norm_T", "dnorm_T_B"),
}

PERP_FORMULAS = [k for k, (c, _, _) in FORMULAS.items() if c == "perp"]
TAN_FORMULAS = [k for k, (c, _, _) in FORMULAS.items() if c == "tan"]


def _formula(name):
    """(class, scalar, block formula) of a table name."""
    if name not in FORMULAS:
        raise SpecializationError(f"unknown variation formula {name!r}")
    return FORMULAS[name]


class _RHS:
    """Right-hand sides of the first-variation formulas at one point."""

    def __init__(self, geom, B):
        """``B`` is the variation at the bundle's seeds, an array jet."""
        self.g = geom
        self.B1 = order1(B)
        self.B0 = values(self.B1)
        self.Bfr = geom.F @ self.B0 @ geom.F.T
        # raised-index B as an order-1 jet field for contractions with jet fields
        self.Braised = geom.ginvJ @ self.B1 @ geom.ginvJ

    # -- helpers ---------------------------------------------------------
    def pair(self, C_frame_full):
        return self.g.frame_pairing(np.asarray(C_frame_full), self.Bfr)

    def embed(self, view, M):
        """A (0,2) frame form on the view's block, zero elsewhere."""
        out = np.zeros((self.g.d, self.g.d))
        out[view.sl, view.sl] = M
        return out

    def mixed_blocks(self, M_frame):
        out = np.zeros_like(M_frame)
        n = self.g.n
        out[:n, n:] = M_frame[:n, n:]
        out[n:, :n] = M_frame[n:, :n]
        return out

    def contract_field(self, PJ):
        """Vector jets <P, B>: P^s_{nu rho} B-raised^{nu rho}."""
        return tensordot(PJ, self.Braised, axes=2)

    def trace_block(self, view):
        """Tr B-sharp over the view's block as a jet scalar (sum eps B(E, E))."""
        E = view.frame1
        return (E @ self.B1 * E).sum(axis=1) @ view.eps

    def bsharp_vec(self, VJ):
        return self.Braised @ (self.g.g1 @ VJ)

    def rhs(self, formula):
        klass, _, block = _formula(formula)
        if isinstance(block, tuple):
            plus, minus = block
            return self.rhs(plus) - self.rhs(minus)
        return getattr(self, block)(getattr(self.g, klass), mixed=klass == "perp")

    # -- block formulas; ``mixed`` adds the terms that pair with the mixed
    # block of the variation ---------------------------------------------
    def dnorm_h_B(self, B, mixed):
        """d|h_B|^2.

        Conventions: g_t = g + tS with S the variation tensor; i, j index
        B's frame E_i and a, b A's frame E_a; h_B(X, Y) is the A-part of
        (nabla_X Y + nabla_Y X)/2 and T_A(X, Y) the B-part of [X, Y]/2;
        g(A_i E_a, E_b) = g(h_A(E_a, E_b), E_i) and g(T#_i E_a, E_b) =
        g(T_A(E_a, E_b), E_i); alpha, theta are ``BlockView.alpha_b``,
        ``theta_b`` and <Lambda_{P,Q}, S> = 2 sum eps eps S(P, Q).

        The mixed block of S (S(E_a, E_b) = S(E_i, E_j) = 0) keeps A and
        its frame and tilts B: E_i(t) = E_i - t (S# E_i)^A is g_t-orthonormal
        and g_t-orthogonal to A to first order.  With (nabla_X E_i)^A =
        -(A_i + T#_i) X for X in A and g(nabla'_X Y, W) = ((nabla_X S)(Y, W)
        + (nabla_Y S)(X, W) - (nabla_W S)(X, Y))/2, every derivative of S
        cancels in d/dt g_t(h_B(E_i(t), E_j(t)), E_a), which is
        -S(E_j, T#_i E_a) - S(E_i, T#_j E_a), the A_i terms cancelling too.
        So the mixed block gives -4 sum eps eps eps g(h_B(E_i, E_j), E_a)
        S(E_j, T#_i E_a).  Of <div h_B, S> only (div h_B)(E_a, E_i) =
        -sum_b eps_b g(h_B(h_A(E_b, E_a) + T_A(E_b, E_a), E_i), E_b) pairs
        with it, the contraction <h_B, S> vanishes, and what is left is
        <2 Lambda(alpha_B, alpha_A - theta_A), S>.
        """
        g = self.g
        C = g.to_frame02(g.div_12(B.h_field))
        if mixed:
            C = C + 2.0 * g.lam(B.alpha_b, B.dual.alpha_b - B.dual.theta_b)
        C = C + self.embed(B, B.flat(B.kcal))
        return self.pair(C) - g.div_vector(self.contract_field(B.h_field))

    def dgHH_B(self, B, mixed):
        """d g(H_B, H_B)."""
        g = self.g
        C = B.div_H * self.embed(B, np.diag(B.eps))
        if mixed:
            C = C + 4.0 * g.pair_vec_12(B.dual.theta_b, B.Hb_frame)
        return self.pair(C) - g.div_vector(B.HJ * self.trace_block(B))

    def dnorm_h_A(self, B, mixed):
        """d|h_A|^2."""
        g, A = self.g, B.dual
        out = 0.0
        if mixed:
            div_a = g.to_frame02(g.div_12(A.alpha_field))
            C = (self.mixed_blocks(div_a)
                 + g.lam(A.alpha_b, B.alpha_b + B.theta_b))
            out = 2.0 * g.div_vector(self.contract_field(A.alpha_field))
            out -= 2.0 * self.pair(C)
        return out + self.pair(A.phi_h) - float(A.H0 @ self.B0 @ A.H0)

    def dgHH_A(self, B, mixed):
        """d g(H_A, H_A)."""
        g, A = self.g, B.dual
        out = -float(A.H0 @ self.B0 @ A.H0)
        if mixed:
            delta = np.zeros((g.d, g.d))
            blk = A.delta_of(A.HJ)
            delta[A.sl, B.sl] = blk
            delta[B.sl, A.sl] = blk.T
            C = g.pair_vec_12(B.theta_b - B.alpha_b, A.Hb_frame) - delta
            BH = A.project(self.bsharp_vec(A.HJ))
            out = (out + 2.0 * self.pair(C)
                   + 2.0 * float(A.H0 @ self.B0 @ B.H0)
                   + 2.0 * g.div_vector(BH))
        return out

    def dnorm_T_B(self, B, mixed):
        """d|T_B|^2."""
        g = self.g
        C = self.embed(B, B.flat(B.tcal))
        if not mixed:
            return 2.0 * self.pair(C)
        div_t = g.to_frame02(g.div_12(B.theta_field))
        C = (C + g.lam(B.theta_b, B.dual.theta_b - B.dual.alpha_b)
             - self.mixed_blocks(div_t))
        return (2.0 * self.pair(C)
                + 2.0 * g.div_vector(self.contract_field(B.theta_field)))

    def dnorm_T_A(self, B, mixed):
        """d|T_A|^2; no term pairs with the mixed block."""
        return -self.pair(B.dual.phi_T)


def verify_first_variation(struct, v, point, formulas=None, steps=FD_STEPS,
                           tol=1e-5, metric_fn=None):
    """Central-difference LHS against jet-assembled RHS for each formula."""
    if formulas is None:
        formulas = PERP_FORMULAS if v.klass == "perp" else TAN_FORMULAS
    if isinstance(formulas, str):
        formulas = [formulas]
    for f in formulas:
        want = _formula(f)[0]
        if v.klass != want:
            raise ClassificationError(
                f"{f} applies to {want}-variations, got {v.klass!r}")

    geom0 = PointGeometry(struct, point, metric_fn=metric_fn)
    gJ = geom0.gJ
    B = v.B_at(geom0.seeds, gmat=gJ)
    g0, B0 = geom0.g0, values(B)
    signed = [s for h in steps for s in (h, -h)]
    # every step of both signs keeps the signature and half of |det g|
    neg0, det0 = np.sum(np.linalg.eigvalsh(g0) < 0.0), abs(np.linalg.det(g0))
    for s in signed:
        gs = g0 + s * B0
        if np.sum(np.linalg.eigvalsh(gs) < 0.0) != neg0 or abs(np.linalg.det(gs)) < 0.5 * det0:
            raise SpecializationError("variation step leaves the metric cone")
    # A bundle calls its metric function only at its own seeds, which are
    # geom0's, so a step bundle's metric function may close over the fields.
    bundles = {s: PointGeometry(struct, point, metric_fn=lambda xs, s=s: gJ + s * B)
               for s in signed}
    rhs_eng = _RHS(geom0, B)

    out = {}
    for f in formulas:
        read = attrgetter(FORMULAS[f][1])
        fd = []
        for h in steps:
            fp = read(bundles[h])
            fm = read(bundles[-h])
            fd.append((fp - fm) / (2.0 * h))
        rhs = rhs_eng.rhs(f)
        disc = [abs(d_ - rhs) for d_ in fd]
        scale = max(abs(rhs), max(abs(d_) for d_ in fd))
        if scale < ZERO_FLOOR:
            out[f] = VariationReport(f, fd, rhs, disc, None, True)
            continue
        # second-order Richardson extrapolation of the FD sequence
        r = steps[-2] / steps[-1]
        fd_ext = (fd[-1] * r * r - fd[-2]) / (r * r - 1.0)
        disc_ext = abs(fd_ext - rhs)
        if disc[-1] < 5e-11 * max(1.0, scale):
            order = None
        else:
            order = math.log(max(disc[0], 1e-300) / disc[-1]) / math.log(
                steps[0] / steps[-1])
        verdict = min(disc[-1], disc_ext) <= tol * max(1.0, scale)
        out[f] = VariationReport(f, fd, rhs, disc, order, verdict)
    return out


# ----------------------------------------------------------------------
# the projection lemma for t-dependent vectors

def verify_projection_lemma(struct, v, point, xfield, steps=FD_STEPS,
                            metric_fn=None):
    """FD of the g_t-projections of X(t) against the stated formulas."""
    if v.klass != "perp":
        raise ClassificationError("the projection lemma is for perp-variations")
    d = struct.dim

    def proj_parts(t):
        fn = v.metric_fn(t, metric_fn)
        P = values(tangent_projector_jets(struct, list(point), fn))
        X = np.asarray(xfield(t), float)
        return P @ X, X - P @ X

    geom0 = PointGeometry(struct, point, metric_fn=metric_fn)
    P0 = values(tangent_projector_jets(struct, list(point), metric_fn))
    B0 = v.B_at(list(point), metric_fn=metric_fn)
    X0 = np.asarray(xfield(0.0), float)
    h0 = steps[-1]
    dX = (np.asarray(xfield(h0), float) - np.asarray(xfield(-h0), float)) / (2 * h0)
    Xperp = X0 - P0 @ X0
    corr = P0 @ (geom0.ginv0 @ (B0 @ Xperp))
    rhs_tan = P0 @ dX + corr
    rhs_perp = dX - P0 @ dX - corr

    worst = 0.0
    for h in steps[-1:]:
        tp, tm = proj_parts(h), proj_parts(-h)
        fd_tan = (tp[0] - tm[0]) / (2 * h)
        fd_perp = (tp[1] - tm[1]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd_tan - rhs_tan))),
                    float(np.max(np.abs(fd_perp - rhs_perp))))
    # the sharp-top identity (B-sharp X)^tan = (B-sharp X-perp)^tan
    lhs = P0 @ (geom0.ginv0 @ (B0 @ X0))
    worst_id = float(np.max(np.abs(lhs - corr)))
    return {"fd_vs_formula": worst, "bsharp_top_identity": worst_id}


# ----------------------------------------------------------------------
# action derivatives by quadrature

def _integrand(action):
    if action != "J_mix":
        raise SpecializationError(f"unknown action {action!r}")

    def f(struct, pt, metric_fn):
        s, dens = smix_density_fast(struct, pt, metric_fn)
        return s * dens
    return f


def check_support(struct, v, q, rtol=1e-9):
    """The variation must be negligible on the quadrature box boundary."""
    mid = [0.5 * (lo + hi) for lo, hi in q.box]
    interior = float(np.max(np.abs(v.raw_at(mid))))
    worst = 0.0
    for mu, (lo, hi) in enumerate(q.box):
        for edge in (lo, hi):
            pt = list(mid)
            pt[mu] = edge
            worst = max(worst, float(np.max(np.abs(v.raw_at(pt)))))
    if worst > rtol * max(1.0, interior):
        raise SupportError(
            f"variation is {worst:.2e} on the box boundary (support leak)")
    return worst


def action_value(struct, q, action, metric_fn=None):
    """The action over the box; the nodes are evaluated in batches
    (``smix_density_batch``)."""
    _integrand(action)                   # rejects an unknown action
    pts, wts = grid_points(q)
    smix, dens = smix_density_batch(struct, pts, metric_fn)
    return pairwise_sum(x * w for x, w in zip((smix * dens).tolist(), wts))


def action_derivative(struct, v, q, action="J_mix", t_step=1e-3,
                      metric_fn=None, enforce_support=True):
    """d/dt at t=0 of the quadrature action along the family, by central FD.

    Quadrature nodes where the variation vanishes identically contribute the
    same value at +t and -t, so only nodes inside the support enter the
    difference; this is exact, not an approximation.  Those nodes are
    evaluated in batches, at +t and -t together: a batch evaluates g and B
    once and forms g + tB and g - tB from them, as ``v.metric_fn(+-t)``
    would.
    """
    f = _integrand(action)
    if enforce_support:
        check_support(struct, v, q)
    fp = v.metric_fn(t_step, metric_fn)
    fm = v.metric_fn(-t_step, metric_fn)
    pts, wts = grid_points(q)
    keep = [v.box is None or _inside(pt, v.box) for pt in pts]

    def chunk(c):
        # _smix_density_nodes seeds c as here, so its metric function may
        # close over the fields
        xs = seed(c, 2)
        g = (metric_fn or struct.metric_at)(xs)
        B = v.B_at(xs, metric_fn, gmat=g)
        (sp, dp), (sm, dm) = (_smix_density_nodes(struct, c, lambda _, s=s: g + s * B)
                              for s in (t_step, -t_step))
        return sp * dp - sm * dm

    diffs = iter(node_chunks([pt for pt, k in zip(pts, keep) if k], struct.dim, chunk,
                             lambda pt: f(struct, pt, fp) - f(struct, pt, fm)))
    return pairwise_sum(next(diffs) * w if k else 0.0
                        for k, w in zip(keep, wts)) / (2.0 * t_step)


def _inside(pt, box):
    return all(lo < x < hi for x, (lo, hi) in zip(pt, box))


# identity (b): S_mix = s_ex + s~_ex + |T|^2 + |T~|^2 + div H + div H~
_SMIX_TERMS = ("E-h2T2-D1b", "E-h2T2-D1", "E-T-gen", "E-tildeT-gen")


def jmix_gradient_pairing(struct, v, q, metric_fn=None):
    """The assembled gradient form of the mixed-curvature action paired with B,
    integrated over the box: the independent side of the action-derivative
    consistency check.

    d/dt of S_mix dvol is the first variation of each term of identity (b)
    plus S_mix tr B / 2 dvol.  The divergence terms drop out: for a variation
    supported in the box, d/dt of the integral of div(H + H~) is zero."""
    if v.klass != "perp":
        raise ClassificationError("the J_mix gradient pairs a perp-variation")
    pts, wts = grid_points(q)

    def one(pt, w):
        geom = PointGeometry(struct, pt, metric_fn=metric_fn, check_domain=False)
        e = _RHS(geom, v.B_at(geom.seeds, gmat=geom.gJ))
        trB = float(np.trace(geom.ginv0 @ e.B0))
        dS = (sum(e.rhs(f) for f in _SMIX_TERMS)
              + 0.5 * trB * (geom.smix - geom.tan.div_H - geom.perp.div_H))
        return dS * geom.volume_density * w

    return pairwise_sum(one(pt, w) for pt, w in zip(pts, wts))


# ----------------------------------------------------------------------
# volume-normalized families

def _perp_scaled_metric(struct, factor, base_metric_fn=None):
    """Scale the complement block of the metric by a spatially constant factor."""
    base = base_metric_fn or struct.metric_at

    def fn(xs):
        g = dense(base(xs), struct.dim)
        P = tangent_projector_jets(struct, xs, gmat=g)
        # g(QX, QY) with Q = I - P equals g - gP - (gP)^T + P^T g P
        gP = g @ P
        return as_field(g + (factor - 1.0) * (g - gP - gP.mT + P.mT @ gP), xs)

    return fn


def bar_family_metric(struct, v, q, t, base_metric_fn=None):
    """The volume-normalized family: complement block rescaled so that the
    box volume is preserved along the variation."""
    return _bar_family_metric(struct, v, q, t, base_metric_fn,
                              volume(struct, q, metric_fn=base_metric_fn))


def _bar_family_metric(struct, v, q, t, base_metric_fn, vol0):
    """``bar_family_metric`` with the base volume ``vol0`` already known."""
    gt = v.metric_fn(t, base_metric_fn)
    volt = volume(struct, q, metric_fn=gt)
    phi = (volt / vol0) ** (-2.0 / (struct.dim - struct.n))
    return _perp_scaled_metric(struct, phi, base_metric_fn=gt), phi


def verify_bar_relation(struct, v, q, t_step=2e-3, metric_fn=None,
                        sstar_grid=None):
    """Volume constancy of the normalized family and the action relation
    linking its derivative to the unnormalized one.

    ``sstar_grid`` controls the quadrature resolution of the starred-scalar
    mean entering the relation; it is a constant of the check, so a coarser
    grid than the action quadrature is usually enough.
    """
    if v.klass != "perp":
        raise ClassificationError("the bar construction starts from a perp-variation")
    check_support(struct, v, q)
    vol0 = volume(struct, q, metric_fn=metric_fn)
    p = struct.dim - struct.n
    q_star = q if sstar_grid is None else QuadratureSpec(
        box=q.box, grid=sstar_grid, rule=q.rule)

    vols, jbars, phis = {}, {}, {}
    for s in (t_step, -t_step):
        fn, phi = _bar_family_metric(struct, v, q, s, metric_fn, vol0)
        vols[s] = volume(struct, q, metric_fn=fn)
        jbars[s] = action_value(struct, q, "J_mix", metric_fn=fn)
        phis[s] = phi
    vol_drift = max(abs(vols[s] - vol0) / vol0 for s in vols)

    djbar = (jbars[t_step] - jbars[-t_step]) / (2.0 * t_step)
    dj = action_derivative(struct, v, q, "J_mix", t_step=t_step,
                           metric_fn=metric_fn, enforce_support=False)
    dphi = (phis[t_step] - phis[-t_step]) / (2.0 * t_step)

    def sstar_field(s, pt, m):
        return s_star(PointGeometry(s, pt, metric_fn=m, check_domain=False), "perp")

    star_mean = domain_mean(struct, sstar_field, q_star, metric_fn=metric_fn)

    pts, wts = grid_points(q)
    trb = node_chunks(
        pts, struct.dim, lambda c: _trace_B_density_nodes(struct, v, c, metric_fn),
        lambda pt: _trace_B(struct, v, pt, metric_fn) * _density(struct, pt, metric_fn))
    int_trB = pairwise_sum(x * w for x, w in zip(trb, wts))
    relation_residual = abs(djbar - (dj - 0.5 * star_mean * int_trB))
    dphi_expected = -(1.0 / p) * int_trB / vol0
    return {
        "volume_drift": vol_drift,
        "dJ_bar": djbar,
        "dJ": dj,
        "s_star_mean": star_mean,
        "int_trace_B": int_trB,
        "relation_residual": relation_residual,
        "dphi_fd": dphi,
        "dphi_expected": dphi_expected,
        "dphi_residual": abs(dphi - dphi_expected),
    }


def _trace_B(struct, v, pt, metric_fn):
    """Tr B-sharp at one point."""
    B0 = v.B_at(list(pt), metric_fn)
    if not B0.any():
        return 0.0
    g0 = values((metric_fn or struct.metric_at)(list(pt)))
    return float(np.trace(np.linalg.inv(g0) @ B0))


def _trace_B_density_nodes(struct, v, pts, metric_fn):
    """Tr B-sharp times sqrt|det g| at an (N, d) array of nodes; the metric
    is evaluated once, on order-1 array jets, and B reuses it."""
    xs = seed(pts, 1)
    g = (metric_fn or struct.metric_at)(xs)
    g0, B0 = values(g), values(v.B_at(xs, metric_fn, gmat=g))
    trB = np.trace(np.linalg.inv(g0) @ B0, axis1=1, axis2=2)
    return trB * np.sqrt(np.abs(np.linalg.det(g0)))


def tildeT_scaling_check(struct, point, factor, metric_fn=None):
    """Exact scaling laws of the integrability norms under a constant
    rescaling of the complement block."""
    if factor <= 0:
        raise SpecializationError("block scaling needs a positive factor")
    base = PointGeometry(struct, point, metric_fn=metric_fn)
    fn = _perp_scaled_metric(struct, factor, base_metric_fn=metric_fn)
    scaled = PointGeometry(struct, point, metric_fn=fn)
    Tt, Tt0 = scaled.perp.norm_T, base.perp.norm_T
    T, T0 = scaled.tan.norm_T, base.tan.norm_T
    return {
        "norm_Tt_scaled": Tt,
        "norm_Tt_expected": Tt0 / factor ** 2,
        "norm_T_scaled": T,
        "norm_T_expected": factor * T0,
        "residual": max(abs(Tt - Tt0 / factor ** 2), abs(T - factor * T0)),
    }
