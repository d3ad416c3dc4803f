"""First-variation checks: metric families, frame evolution, action derivatives.

The left-hand side of every variation formula is measured by central finite
differences of the relevant scalar invariant along the metric family; the
right-hand side is assembled at the unvaried metric from the infinitesimal
variation, with every divergence evaluated through jets.  The
two sides never share a differentiation mechanism, so their agreement (and
its second-order convergence in the step) is evidence, not bookkeeping.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import exprlang
from .errors import (ClassificationError, InvalidArgumentError, SpecializationError,
                     SupportError)
from .geometry import (PointGeometry, jet_matrix_inverse, metric_density, metric_jets,
                       node_chunks, quad, smix_density, smix_density_batch)
from .jets import as_field, check_finite, dense, einsum, order1, scatter, seed, value_of, values
from .structure import orthonormal_frame
from .euler_lagrange import (QuadratureSpec, _diag, domain_mean, grid_points, integrate,
                             metric_field, node_integrals, pairwise_sum, s_star, volume)

FD_STEPS = (1e-3, 5e-4, 2.5e-4)
ZERO_FLOOR = 5e-10


# ----------------------------------------------------------------------
# projector onto the distribution, closed form (no frame, jet-safe)

def tangent_projector_jets(struct, xs, gmat=None, span=None):
    """P[sigma][nu] of the g-orthogonal projector onto D-tilde, as a field
    at ``xs`` (:func:`~mixedcurv.jets.as_field`): a float matrix at a float
    point, an array jet at scalar seeds, a stack of them at node seeds.

    ``gmat`` and ``span`` are the metric and ``struct.dtilde_at(xs)`` as
    fields at ``xs``; the structure's own are evaluated where they are None."""
    g = as_field(struct.metric_at(xs) if gmat is None else gmat, xs)
    W = as_field(struct.dtilde_at(xs) if span is None else span, xs)   # n rows of d components
    Wg = W @ g
    ginv = jet_matrix_inverse(Wg @ W.mT, struct.n)
    return W.mT @ (ginv @ Wg)


# ----------------------------------------------------------------------
# metric variations

@dataclass
class MetricVariation:
    """A symmetric (0,2) field B and the one-parameter family g + t B, g
    the structure's metric; B's expressions read the structure's params.

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

    def raw_at(self, xs):
        """The entries of raw B at ``xs``: zero outside the box, where nothing
        is evaluated (exact: the bump's window vanishes to high order at the
        box faces); node seeds that straddle the box are refused."""
        d = self.struct.dim
        out = [[0.0] * d for _ in range(d)]
        inside = self._support(xs)
        if not np.all(inside):
            if np.any(inside):
                raise InvalidArgumentError("raw B at node seeds that straddle the box")
            return out
        entries = self._program.run(list(xs), self.struct.params)
        for i in range(d):
            for j in range(i, d):
                out[i][j] = out[j][i] = next(entries)
        return out

    def _support(self, xs):
        """Whether the seeds ``xs`` lie strictly inside the box (always
        without one): a bool at a point, a node mask at node seeds."""
        return np.all([(lo < x) & (x < hi) for x, (lo, hi) in
                       zip(map(value_of, xs), self.box or ())], axis=0)

    @cached_property
    def _program(self):
        """The upper triangle of ``raw``, row by row, as one program."""
        d = self.struct.dim
        return exprlang.Program([self.raw[i][j] for i in range(d) for j in range(i, d)])

    def B_at(self, xs, gmat=None, span=None):
        """B as a field at ``xs``, as ``struct.metric_at`` gives the metric;
        ``gmat`` and ``span`` are as for :func:`tangent_projector_jets`.
        B is zero outside the box: at node seeds that straddle it only the
        nodes inside are evaluated, with ``gmat`` and ``span`` sliced to
        them, and the others read zero."""
        d = self.struct.dim
        inside = self._support(xs)
        if np.any(inside) and not np.all(inside):
            part = lambda F: None if F is None else dense(F, d)[inside]
            return scatter(inside, self.B_at([x[inside] for x in xs], part(gmat), part(span)))
        raw = self.raw_at(xs)
        B = as_field(raw, xs)
        zero = all(isinstance(x, float) and x == 0.0 for row in raw for x in row)
        if self.project and self.klass != "general" and not zero:   # outside: exactly zero
            if self.klass not in ("tan", "perp"):
                raise ClassificationError(f"unknown variation class {self.klass!r}")
            P = tangent_projector_jets(self.struct, xs, gmat=gmat, span=span)
            PBP = P.mT @ (B @ P)
            B = PBP if self.klass == "tan" else B - PBP
        return as_field(B, xs)

    def metric_fn(self, t):
        """The metric function of g + t B, g the structure's metric; it
        returns fields, as ``struct.metric_at`` does."""
        if t == 0.0:
            return self.struct.metric_at

        def fam(xs):
            g = as_field(self.struct.metric_at(xs), xs)
            return as_field(g + t * self.B_at(xs, g), xs)

        return fam


def classify(v, points):
    """Block decomposition of the effective B at ``points``, read as one node
    bundle; validates the declared class."""
    geom = PointGeometry(v.struct, np.array(points, dtype=float))
    Bfr = geom.F @ values(v.B_at(seed(geom.coords, 1), gmat=order1(geom.gJ))) @ geom.F.mT
    n = geom.n
    blocks = {"tan": Bfr[..., :n, :n], "perp": Bfr[..., n:, n:], "mixed": Bfr[..., :n, n:]}
    worst = {k: float(np.max(np.abs(b))) for k, b in blocks.items()}
    scale = max(1.0, *worst.values())
    if v.klass == "perp" and worst["tan"] > 1e-12 * scale:
        raise ClassificationError(
            f"declared perp-variation has a tangent block of size {worst['tan']:.2e}")
    if v.klass == "tan" and worst["perp"] + worst["mixed"] > 1e-12 * scale:
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

def evolve_frame(struct, v, point, t_end=0.1, steps=64):
    """4th-order integration of the adapted-frame evolution equations.

    Returns the frame path and the worst orthonormality/adaptedness drift,
    measured by recomputing g_t-inner-products directly at every grid time.
    The frame starts from the float frame at g; B-sharp at every RK4 stage
    time (t0, t0 + h/2 and t1 of each step) comes from one batched solve.
    Since g_t(B-sharp X, Y) = B(X, Y), the D-tilde rows E move on their own,
    E' = -(E B E^T eps) E / 2, and only they are stepped one RK4 step at a
    time.  The complement rows N then move linearly, N' = N M with
    M = -(B-sharp^T + B E^T eps E) / 2 at E's stage values, so each RK4 step
    is one matrix R = I + h/6 (M1 + 2 K2 + 2 K3 + K4), built for every step
    at once.  A perp variation leaves E fixed and a tan variation N.
    """
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise InvalidArgumentError(f"need a positive integer number of RK4 steps, got {steps!r}")
    if not (isinstance(t_end, numbers.Real) and math.isfinite(t_end)):
        raise InvalidArgumentError(f"need a finite real end time, got t_end={t_end!r}")
    pt = list(point)
    d, n = struct.dim, struct.n
    g_base = values(struct.metric_at(pt))
    span = struct.dtilde_at(pt)
    fr = orthonormal_frame(g_base, span, d, point=pt)
    frame, signs = fr.vectors, fr.signs                 # frame vectors as rows
    B0 = v.B_at(pt, gmat=g_base, span=span)

    ts = [k * t_end / steps for k in range(steps + 1)]
    times = [ts[0]]
    for t0, t1 in zip(ts, ts[1:]):
        times += [t0 + (t1 - t0) / 2, t1]
    G = g_base + np.array(times)[:, None, None] * B0    # g_t at every stage time
    try:
        sharp = np.linalg.solve(G, np.broadcast_to(B0, G.shape))
    except np.linalg.LinAlgError:
        sharp = np.array([_solve_at(t, gt, B0) for t, gt in zip(times, G)])
    hs = np.diff(ts)
    eps = signs[:n, None]

    Es = np.empty((steps + 1, 4, n, d))                 # E at the four stages of each step
    Es[:] = E = frame[:n]
    if v.klass in ("tan", "general"):
        c = -0.5 * eps
        for k, h in enumerate(hs.tolist()):
            S = Es[k]
            k1 = (E @ B0 @ E.T) @ (c * E)
            S[1] = Y = E + h / 2 * k1
            k2 = (Y @ B0 @ Y.T) @ (c * Y)
            S[2] = Y = E + h / 2 * k2
            k3 = (Y @ B0 @ Y.T) @ (c * Y)
            S[3] = Y = E + h * k3
            k4 = (Y @ B0 @ Y.T) @ (c * Y)
            Es[k + 1, 0] = E = E + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    N = frame[n:]
    Ns = np.empty((steps,) + N.shape)
    if v.klass == "tan":
        Ns[:] = N
    else:
        stage = 2 * np.arange(steps)[:, None] + [0, 1, 1, 2]     # stage time indices
        M = -0.5 * (sharp.mT[stage] + B0 @ Es[:steps].mT @ (eps * Es[:steps]))
        M1, M2, M3, M4 = np.moveaxis(M, 1, 0)
        h = hs[:, None, None]                           # stage slope i is N K_i, K_1 = M1
        K2 = M2 + (h / 2 * M1) @ M2
        K3 = M3 + (h / 2 * K2) @ M3
        K4 = M4 + (h * K3) @ M4
        R = np.eye(d) + h / 6 * (M1 + 2 * K2 + 2 * K3 + K4)
        for k in range(steps):
            N = Ns[k] = N @ R[k]
    P = np.concatenate((Es[1:, 0], Ns), axis=1)
    Gram = P @ G[2::2] @ P.mT
    E = P[:, :n]
    W = span.T
    WtW = np.linalg.pinv(W.T @ W) @ W.T
    drift = max(float(np.max(np.abs(Gram - np.diag(signs)))),
                float(np.max(np.abs(E - (E @ WtW.T) @ W.T))))
    return [frame, *P], drift


def _solve_at(t, gt, B0):
    """B-sharp at one stage time; a singular g_t ends the family there."""
    try:
        return np.linalg.solve(gt, B0)
    except np.linalg.LinAlgError:
        raise SpecializationError(f"family degenerates at t={t}") from None


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
    """Right-hand sides of the first-variation formulas, read from a bundle:
    floats at a point, arrays of the bundle's batch shape on a batch."""

    def __init__(self, geom, B):
        """``B`` is the variation at the bundle's seeds, an array jet."""
        self.g = geom
        self.B1 = order1(B)
        self.B0 = values(self.B1)
        self.Bfr = geom.F @ self.B0 @ geom.F.mT
        # raised-index B as an order-1 jet field for contractions with jet fields
        self.Braised = geom.ginvJ @ self.B1 @ geom.ginvJ

    # -- helpers ---------------------------------------------------------
    def pair(self, C_frame_full):
        return self.g.frame_pairing(C_frame_full, self.Bfr)

    def embed(self, M, rows, cols):
        """A (0,2) frame form with M on the (rows, cols) block, zero elsewhere."""
        out = np.zeros(M.shape[:-2] + (self.g.d, self.g.d))
        out[..., rows, cols] = M
        return out

    def mixed_blocks(self, M_frame):
        out = np.zeros_like(M_frame)
        n = self.g.n
        out[..., :n, n:] = M_frame[..., :n, n:]
        out[..., n:, :n] = M_frame[..., n:, :n]
        return out

    def contract_field(self, PJ):
        """Vector jets <P, B>: P^s_{nu rho} B-raised^{nu rho}."""
        return einsum("...snr,...nr->...s", PJ, self.Braised)

    def trace_block(self, view):
        """Tr B-sharp over the view's block as a jet scalar (sum eps B(E, E))."""
        E = view.frame1
        EB = einsum("...am,...mn->...an", E, self.B1)
        return einsum("...a,...a->...", einsum("...an,...an->...a", EB, E), view.eps)

    def bsharp_vec(self, VJ):
        return einsum("...mn,...n->...m", self.Braised,
                      einsum("...mn,...n->...m", self.g.g1, VJ))

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
        C = C + self.embed(B.flat(B.kcal), B.sl, B.sl)
        return self.pair(C) - g.div_vector(self.contract_field(B.h_field))

    def dgHH_B(self, B, mixed):
        """d g(H_B, H_B)."""
        g = self.g
        C = self.embed(_diag(B.div_H, B.eps), B.sl, B.sl)
        if mixed:
            C = C + 4.0 * g.pair_vec_12(B.dual.theta_b, B.Hb_frame)
        return self.pair(C) - g.div_vector(B.HJ * self.trace_block(B)[..., None])

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
        return out + self.pair(A.phi_h) - quad(A.H0, self.B0, A.H0)

    def dgHH_A(self, B, mixed):
        """d g(H_A, H_A)."""
        g, A = self.g, B.dual
        out = -quad(A.H0, self.B0, A.H0)
        if mixed:
            blk = A.delta_of(A.HJ)
            C = (g.pair_vec_12(B.theta_b - B.alpha_b, A.Hb_frame)
                 - self.embed(blk, A.sl, B.sl) - self.embed(blk.mT, B.sl, A.sl))
            BH = A.project(self.bsharp_vec(A.HJ))
            out = (out + 2.0 * self.pair(C)
                   + 2.0 * quad(A.H0, self.B0, B.H0)
                   + 2.0 * g.div_vector(BH))
        return out

    def dnorm_T_B(self, B, mixed):
        """d|T_B|^2."""
        g = self.g
        C = self.embed(B.flat(B.tcal), B.sl, B.sl)
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


def verify_first_variation(struct, v, point, formulas=None, steps=FD_STEPS, tol=1e-5):
    """Central-difference LHS against jet-assembled RHS for each formula,
    both read off one bundle: the LHS at its FD steps, the RHS at g."""
    if not (len(set(steps)) == len(steps) >= 2 and all(0.0 < h < math.inf for h in steps)):
        raise InvalidArgumentError(
            f"need two or more distinct positive finite FD steps, got {steps}")
    if formulas is None:
        formulas = PERP_FORMULAS if v.klass == "perp" else TAN_FORMULAS
    if isinstance(formulas, str):
        formulas = [formulas]
    for f in formulas:
        want = _formula(f)[0]
        if v.klass != want:
            raise ClassificationError(
                f"{f} applies to {want}-variations, got {v.klass!r}")

    # One bundle at the point: member 0 at g, member 2k+1 at g + h_k B and
    # member 2k+2 at g - h_k B.  It calls its functions once, at its own
    # seeds, after g, the span W and B are read there below, so they may
    # return those fields.
    signed = np.array([0.0] + [s for h in steps for s in (h, -h)])
    bundle = PointGeometry(struct, point, metric_fn=lambda _: gJ + signed[:, None, None] * B,
                           dtilde_fn=lambda _: W)
    xs = bundle.seeds
    gJ = metric_jets(struct.metric_at, xs, struct.dim, bundle.point)
    W = struct.dtilde_at(xs)
    B = v.B_at(xs, gmat=gJ, span=W)
    # every step of both signs keeps the signature and half of |det g|
    g0 = values(gJ)
    gs = g0 + signed[1:, None, None] * values(B)
    neg0, det0 = np.sum(np.linalg.eigvalsh(g0) < 0.0), abs(np.linalg.det(g0))
    if (np.any(np.sum(np.linalg.eigvalsh(gs) < 0.0, axis=-1) != neg0)
            or np.any(np.abs(np.linalg.det(gs)) < 0.5 * det0)):
        raise SpecializationError("variation step leaves the metric cone")
    rhs_eng = _RHS(bundle, B)

    out = {}
    for f in formulas:
        at = attrgetter(FORMULAS[f][1])(bundle)
        fd = [float(at[2 * k + 1] - at[2 * k + 2]) / (2.0 * h) for k, h in enumerate(steps)]
        rhs = float(rhs_eng.rhs(f)[0])
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

def verify_projection_lemma(struct, v, point, xfield, step=FD_STEPS[-1]):
    """Central differences with the step ``step`` of the g_t-projections of
    X(t) against the stated formulas."""
    if v.klass != "perp":
        raise ClassificationError("the projection lemma is for perp-variations")
    _check_step(step)
    pt = list(point)

    def proj_parts(t):
        P = values(tangent_projector_jets(struct, pt, gmat=v.metric_fn(t)(pt)))
        X = np.asarray(xfield(t), float)
        return P @ X, X - P @ X

    geom0 = PointGeometry(struct, point)
    g0 = struct.metric_at(pt)
    P0 = values(tangent_projector_jets(struct, pt, gmat=g0))
    B0 = v.B_at(pt, gmat=g0)
    X0 = np.asarray(xfield(0.0), float)
    dX = (np.asarray(xfield(step), float) - np.asarray(xfield(-step), float)) / (2 * step)
    Xperp = X0 - P0 @ X0
    corr = P0 @ (geom0.ginv0 @ (B0 @ Xperp))
    rhs_tan = P0 @ dX + corr
    rhs_perp = dX - P0 @ dX - corr

    fd = (np.array(proj_parts(step)) - np.array(proj_parts(-step))) / (2 * step)
    worst = float(np.max(np.abs(fd - np.array([rhs_tan, rhs_perp]))))
    # the sharp-top identity (B-sharp X)^tan = (B-sharp X-perp)^tan
    lhs = P0 @ (geom0.ginv0 @ (B0 @ X0))
    worst_id = float(np.max(np.abs(lhs - corr)))
    return {"fd_vs_formula": worst, "bsharp_top_identity": worst_id}


# ----------------------------------------------------------------------
# action derivatives by quadrature

def _check_action(action):
    if action != "J_mix":
        raise SpecializationError(f"unknown action {action!r}")


def _check_step(step):
    """Raise unless the FD step ``step`` is a positive finite number."""
    if not (isinstance(step, (int, float)) and 0.0 < step < math.inf):
        raise InvalidArgumentError(f"need a positive finite FD step, got {step!r}")


def check_support(struct, v, q):
    """The variation must be negligible on the quadrature box boundary."""
    mid = [0.5 * (lo + hi) for lo, hi in q.box]
    interior = float(np.max(np.abs(v.raw_at(mid))))
    worst = 0.0
    for mu, (lo, hi) in enumerate(q.box):
        for edge in (lo, hi):
            pt = list(mid)
            pt[mu] = edge
            worst = max(worst, float(np.max(np.abs(v.raw_at(pt)))))
    if worst > 1e-9 * max(1.0, interior):
        raise SupportError(
            f"variation is {worst:.2e} on the box boundary (support leak)")
    return worst


def action_value(struct, q, action, metric_fn=None):
    """The action over the box; the nodes are evaluated in batches
    (``smix_density_batch``)."""
    _check_action(action)
    struct.require_box(q.box)
    pts, wts = grid_points(q)
    smix, dens = smix_density_batch(struct, pts, metric_fn)
    return pairwise_sum(x * w for x, w in zip((smix * dens).tolist(), wts))


def action_derivative(struct, v, q, action="J_mix", t_step=1e-3, enforce_support=True):
    """d/dt at t=0 of the quadrature action along the family, by central FD.

    Quadrature nodes where the variation vanishes identically contribute the
    same value at +t and -t, so only nodes inside the support enter the
    difference; this is exact, not an approximation.  Those nodes are
    evaluated in batches: a batch evaluates g, B and the span W once and
    reads the difference off one bundle over its nodes whose two members
    are g + tB and g - tB, as ``v.metric_fn(+-t)`` would give them
    (``_jmix_difference``).
    """
    _check_action(action)
    _check_step(t_step)
    struct.require_box(q.box)
    if enforce_support:
        check_support(struct, v, q)
    pts, wts = grid_points(q)
    keep = [v.box is None or _inside(pt, v.box) for pt in pts]

    def chunk(c):
        xs = seed(c, 2)
        g, W = struct.metric_at(xs), struct.dtilde_at(xs)
        return _jmix_difference(struct, c, g, W, v.B_at(xs, gmat=g, span=W), t_step)

    diffs = iter(node_chunks([pt for pt, k in zip(pts, keep) if k], struct.dim, chunk))
    return pairwise_sum(next(diffs) * w if k else 0.0
                        for k, w in zip(keep, wts)) / (2.0 * t_step)


def _jmix_difference(struct, nodes, g, W, B, t):
    """S_mix dvol at g + tB less S_mix dvol at g - tB at the (N, d) array
    ``nodes``, where g, the span W and B are fields at their order-2 seeds.
    One bundle over the nodes reads both: its batch is (N, 2), the node
    axis first, so an error names its node."""
    signed = np.array([t, -t])[:, None, None]
    # the bundle calls its functions only at its own seeds, which are the
    # fields' seeds, so they may return the fields
    smix, dens = smix_density(PointGeometry(
        struct, nodes, metric_fn=lambda _: g[:, None] + signed * B[:, None],
        dtilde_fn=lambda _: W[:, None]))
    return smix[:, 0] * dens[:, 0] - smix[:, 1] * dens[:, 1]


def _inside(pt, box):
    return all(lo < x < hi for x, (lo, hi) in zip(pt, box))


# identity (b): S_mix = s_ex + s~_ex + |T|^2 + |T~|^2 + div H + div H~
_SMIX_TERMS = ("E-h2T2-D1b", "E-h2T2-D1", "E-T-gen", "E-tildeT-gen")


def jmix_gradient_pairing(struct, v, q):
    """The assembled gradient form of the mixed-curvature action paired with B,
    integrated over the box: the independent side of the action-derivative
    consistency check.

    d/dt of S_mix dvol is the first variation of each term of identity (b)
    plus S_mix tr B / 2 dvol.  The divergence terms drop out: for a variation
    supported in the box, d/dt of the integral of div(H + H~) is zero."""
    if v.klass != "perp":
        raise ClassificationError("the J_mix gradient pairs a perp-variation")

    def dS(geom):
        e = _RHS(geom, v.B_at(geom.seeds, gmat=geom.gJ))
        trB = np.trace(geom.ginv0 @ e.B0, axis1=-2, axis2=-1)
        return (sum(e.rhs(f) for f in _SMIX_TERMS)
                + 0.5 * trB * (geom.smix - geom.tan.div_H - geom.perp.div_H))

    return integrate(struct, dS, q)


# ----------------------------------------------------------------------
# volume-normalized families

def _perp_scaled(g, P, factor):
    """The metric field g with its complement block scaled by ``factor``,
    P the projector onto D-tilde: g(QX, QY) with Q = I - P equals
    g - gP - (gP)^T + P^T g P."""
    gP = g @ P
    return g + (factor - 1.0) * (g - gP - gP.mT + P.mT @ gP)


def _perp_scaled_metric(struct, factor, base_metric_fn=None):
    """Scale the complement block of the metric by a spatially constant factor."""
    base = base_metric_fn or struct.metric_at

    def fn(xs):
        g = as_field(base(xs), xs)
        return as_field(_perp_scaled(g, tangent_projector_jets(struct, xs, gmat=g), factor), xs)

    return fn


def bar_family_metric(struct, v, q, t):
    """The volume-normalized family: complement block rescaled so that the
    box volume is preserved along the variation."""
    vol0 = volume(struct, q)
    gt = v.metric_fn(t)
    phi = (volume(struct, q, metric_fn=gt) / vol0) ** (-2.0 / (struct.dim - struct.n))
    return _perp_scaled_metric(struct, phi, base_metric_fn=gt), phi


def verify_bar_relation(struct, v, q, t_step=2e-3, sstar_grid=None):
    """Volume constancy of the normalized family and the action relation
    linking its derivative to the unnormalized one.

    Two passes over the box's node chunks (``node_integrals``) evaluate g,
    the span W and B once per chunk each.  The first, on order-1 seeds as
    ``volume``, reads the volume and the integral of tr B-sharp at g and
    the volume of each g + tB, so the scale phi(+-t) of each normalized
    metric.  The second, on order-2 seeds, builds the two normalized
    metrics from them one after the other, a bundle each, and reads the
    volume and S_mix dvol of each at every node: J-bar is an FD of the
    frame-free ``smix_density``, and no node takes it from the scaling law
    that s* encodes.  The same g, W and B at the chunk's nodes inside the
    bump give dJ's difference as ``action_derivative`` reads it.

    ``sstar_grid`` controls the quadrature resolution of the starred-scalar
    mean entering the relation; it is a constant of the check, so a coarser
    grid than the action quadrature is usually enough.
    """
    if v.klass != "perp":
        raise ClassificationError("the bar construction starts from a perp-variation")
    _check_step(t_step)
    struct.require_box(q.box)
    check_support(struct, v, q)
    d, p = struct.dim, struct.dim - struct.n
    signed = (t_step, -t_step)

    def volumes(c):
        xs = seed(c, 1)
        g = metric_field(struct.metric_at, xs, d)
        dens = metric_density(values(g))
        ginv = jet_matrix_inverse(values(g), d)
        B = v.B_at(xs, gmat=g, span=struct.dtilde_at(xs))
        return np.stack([dens, dens * np.trace(ginv @ values(B), axis1=-2, axis2=-1)] + [
            metric_density(values(check_finite(g + s * B))) for s in signed], axis=1)

    vol0, int_trB, *vols = node_integrals(struct, q, volumes)
    phis = [(vol / vol0) ** (-2.0 / p) for vol in vols]

    def normalized(c):
        xs = seed(c, 2)
        g = metric_field(struct.metric_at, xs, d)
        W = dense(struct.dtilde_at(xs), d)
        B = v.B_at(xs, gmat=g, span=W)
        cols = []
        for s, phi in zip(signed, phis):
            gs = g + s * B
            gbar = _perp_scaled(gs, tangent_projector_jets(struct, xs, gmat=gs, span=W), phi)
            smix, dens = smix_density(PointGeometry(
                struct, c, metric_fn=lambda _, gbar=gbar: gbar, dtilde_fn=lambda _: W))
            cols += [dens, dens * smix]
        keep = np.array([v.box is None or _inside(pt, v.box) for pt in c.tolist()])
        diff = np.zeros(len(c))
        if keep.any():
            diff[keep] = _jmix_difference(struct, c[keep], g[keep], W[keep], B[keep], t_step)
        return np.stack(cols + [diff], axis=1)

    vol_p, jbar_p, vol_m, jbar_m, dj = node_integrals(struct, q, normalized)
    vol_drift = max(abs(vol_p - vol0) / vol0, abs(vol_m - vol0) / vol0)
    djbar = (jbar_p - jbar_m) / (2.0 * t_step)
    dj /= 2.0 * t_step
    dphi = (phis[0] - phis[1]) / (2.0 * t_step)

    q_star = q if sstar_grid is None else QuadratureSpec(
        box=q.box, grid=sstar_grid, rule=q.rule)
    star_mean = domain_mean(struct, lambda geom: s_star(geom, "perp"), q_star)
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
