"""Euler-Lagrange residuals of the total-mixed-scalar-curvature action.

Every equation is assembled term by term from a :class:`PointGeometry` bundle
and reported as the max-abs norm of its residual in the adapted frame.  The
evaluators read the bundle their caller built, so the equations at a point
share one bundle; ``el_general`` also takes a (structure, point) pair and
builds it.  The domain-mean constants entering the equations (the starred
scalars, the mean divergence of the complement's mean curvature, the mean
Ricci curvature) can be supplied by the caller or evaluated pointwise / by
quadrature; the report always records which source was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import DomainError, SpecializationError
from .geometry import PointGeometry, metric_density, node_chunks
from .jets import as_field, dshift, gradients, jexp, seed, value_of, values

DEFAULT_TOL = 1e-6


# ----------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureSpec:
    box: tuple                 # per-coordinate (lo, hi), inside the domain box
    grid: int = 16             # points per axis
    rule: str = "midpoint"     # or "trapezoid"

    def __post_init__(self):
        if self.grid < 2:
            raise DomainError("quadrature grid must be >= 2 per axis")
        for lo, hi in self.box:
            if not lo < hi:
                raise DomainError("degenerate quadrature box")


def _axis_nodes(lo, hi, grid, rule):
    if rule == "midpoint":
        w = (hi - lo) / grid
        return [lo + (k + 0.5) * w for k in range(grid)], [w] * grid
    if rule == "trapezoid":
        w = (hi - lo) / (grid - 1)
        weights = [w] * grid
        weights[0] = weights[-1] = 0.5 * w
        return [lo + k * w for k in range(grid)], weights
    raise DomainError(f"unknown quadrature rule {rule!r}")


def grid_points(q):
    axes = [_axis_nodes(lo, hi, q.grid, q.rule) for lo, hi in q.box]
    pts = [()]
    wts = [1.0]
    for nodes, weights in axes:
        pts = [pt + (x,) for pt in pts for x in nodes]
        wts = [w * wx for w in wts for wx in weights]
    return pts, wts


def pairwise_sum(values):
    """Deterministic pairwise reduction, independent of accumulation order."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def integrate(struct, reader, q, metric_fn=None):
    """The integral of ``reader`` dvol over the box of ``q``.

    The nodes are evaluated in chunks (``node_chunks``), with one bundle
    ``geom`` over each chunk's nodes, and ``reader(geom)`` gives the values
    at those nodes: an array with the node axis first, or a scalar, which
    stands for that value at every node.  Values with k columns give k
    integrals from one pass.  Each value is weighted by
    ``geom.volume_density`` and the node's weight and summed in node order
    by ``pairwise_sum``; the result is a float, or a list of k floats."""
    struct.require_box(q.box)
    pts, wts = grid_points(q)

    def chunk(c):
        geom = PointGeometry(struct, c, metric_fn=metric_fn, check_domain=False)
        return (geom.volume_density * np.asarray(reader(geom), dtype=float).T).T

    vals = node_chunks(pts, struct.dim, chunk)
    return np.asarray(pairwise_sum(x * w for x, w in zip(vals, wts))).tolist()


def volume(struct, q, metric_fn=None):
    """Volume of the box.  It reads no derivative, so its chunks of nodes
    (``node_chunks``) evaluate the metric on order-1 array jets and build
    no bundle."""
    struct.require_box(q.box)
    pts, wts = grid_points(q)
    dens = node_chunks(pts, struct.dim, lambda c: metric_density(
        values((metric_fn or struct.metric_at)(seed(c, 1)))))
    return pairwise_sum(dn * w for dn, w in zip(dens.tolist(), wts))


def domain_mean(struct, reader, q, metric_fn=None):
    """Mean of ``reader``, as :func:`integrate` takes it, with respect to the
    metric volume element: the integrals of (reader, 1) from one pass."""
    total, vol = integrate(struct, lambda geom: np.stack(
        [np.broadcast_to(reader(geom), geom.batch), np.ones(geom.batch)], axis=-1),
        q, metric_fn=metric_fn)
    return total / vol


# ----------------------------------------------------------------------
# starred scalars

def s_star(geom, side="perp"):
    """The starred mixed scalar entering the volume-normalized equations."""
    if side not in ("perp", "tan"):
        raise SpecializationError(f"unknown side {side!r}")
    B = getattr(geom, side)
    A = B.dual
    return geom.smix - (2.0 / B.dim) * (
        A.s_ex + 2.0 * B.norm_T - A.norm_T + A.div_H)


def s_star_flow(geom):
    """Flow-specialized starred scalars (independent assembly, n = 1)."""
    if geom.n != 1:
        raise SpecializationError("flow form needs rank-one D-tilde")
    tan, perp = geom.tan, geom.perp
    eN = tan.eps[0]
    star_perp = eN * geom.ric_N - 2.0 * ((2.0 / geom.p) * perp.norm_T
                                         + tan.div_H / geom.p)
    nt1 = float(np.dot(gradients(perp.tau1_J, geom.d), geom.F[0]))
    tau2 = float(np.trace(perp.A_ops[0] @ perp.A_ops[0]))
    star_tan = eN * geom.ric_N - 2.0 * (eN * (nt1 - tau2) - perp.norm_T)
    return star_perp, star_tan


# ----------------------------------------------------------------------
# reports

@dataclass
class ELReport:
    equation: str
    residual: list
    norm: float
    constants: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_TOL
    extra: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return self.norm <= self.tolerance

    def to_dict(self):
        return {
            "equation": self.equation,
            "residual": self.residual,
            "residual_norm": self.norm,
            "constants": self.constants,
            "tolerance": self.tolerance,
            "verdict": bool(self.verdict),
            **({"extra": self.extra} if self.extra else {}),
        }


def _report(eq, matrix, constants, tol):
    arr = np.atleast_1d(np.asarray(matrix, float))
    return ELReport(eq, arr.tolist(), float(np.max(np.abs(arr))), constants, tol)


def _constant(consts, constants, key, fallback):
    """Value of a domain-mean constant, user-supplied ``constants`` taking
    precedence over the pointwise ``fallback()``; the value and its source
    are recorded in the report's ``consts``."""
    if constants and key in constants:
        value, source = float(constants[key]), "user"
    else:
        value, source = fallback(), "pointwise"
    consts[key] = value
    consts[f"{key}_source"] = source
    return value


# ----------------------------------------------------------------------
# general Euler-Lagrange system

def _el_block(geom, B, A, star):
    """E-main-0i residual with B = perp, A = tan; E-main-0iii with the two
    blocks exchanged."""
    return (B.r - B.pair_tensor_vec
            + B.flat(B.casorati)
            - B.flat(B.tcal)
            + A.phi_h[B.sl, B.sl] + A.phi_T[B.sl, B.sl]
            + A.psi - B.def_of(A.HJ)
            + B.flat(B.kcal)
            - 0.5 * (geom.smix - star + B.div_H - A.div_H) * np.diag(B.eps))


def el_general(struct, point, which, constants=None, metric_fn=None, tol=DEFAULT_TOL):
    """The general system at a point: builds the bundle for
    :func:`el_general_at`."""
    return el_general_at(PointGeometry(struct, point, metric_fn=metric_fn), which,
                         constants=constants, tol=tol)


def el_general_at(geom, which, constants=None, tol=DEFAULT_TOL):
    """E-main-0i, 0ii or 0iii read from the bundle ``geom``."""
    tan, perp = geom.tan, geom.perp
    n = geom.n
    consts = {}

    if which in ("E-main-0i", "E-main-0iii"):
        B = perp if which == "E-main-0i" else tan
        star = _constant(consts, constants, f"s_star_{B.side}",
                         lambda: s_star(geom, B.side))
        return _report(which, _el_block(geom, B, B.dual, star), consts, tol)

    if which == "E-main-0ii":
        M = geom.to_frame02(geom.div_12(tan.alpha_field)) - perp.div_theta
        full = (2.0 * geom.pair_vec_12(tan.theta_b, perp.Hb_frame)
                + geom.pair_vec_12(perp.theta_b - perp.alpha_b,
                                   tan.Hb_frame)
                + 0.5 * (np.outer(tan.Hb_frame, perp.Hb_frame)
                         + np.outer(perp.Hb_frame, tan.Hb_frame))
                + 2.0 * geom.lam(perp.alpha_b, tan.theta_b)
                + geom.lam(tan.alpha_b, perp.alpha_b)
                + geom.lam(tan.theta_b, perp.theta_b))
        # the (D-tilde, D) block of each tensor, symmetrized
        resid = (0.5 * (M[:n, n:] + M[n:, :n].T)
                 + 0.5 * (full[:n, n:] + full[n:, :n].T)
                 - tan.delta_of(tan.HJ))
        return _report(which, resid, consts, tol)

    raise SpecializationError(f"unknown equation {which!r}")


# ----------------------------------------------------------------------
# flows (rank-one distinguished distribution)

def _flow_data(geom):
    if geom.n != 1:
        raise SpecializationError("flow equations need rank-one D-tilde")
    eN = geom.tan.eps[0]
    At = geom.perp.A_ops[0]
    Tt = geom.perp.Tsharp_ops[0]
    hsc = eN * geom.perp.h[:, :, 0]
    tau1 = float(np.trace(At))
    return eN, At, Tt, hsc, tau1


def el_flow(geom, which, constants=None, tol=DEFAULT_TOL):
    """E-main-1i, 3i or 2i read from the bundle ``geom`` (rank-one D-tilde)."""
    eN, At, Tt, hsc, tau1 = _flow_data(geom)
    tan, perp = geom.tan, geom.perp
    p = geom.p
    consts = {}

    if which == "E-main-1i":
        star = _constant(consts, constants, "s_star_perp",
                         lambda: s_star(geom, "perp"))
        op = At @ At - Tt @ Tt + (Tt @ At - At @ Tt)
        div_term = geom.div_vector(tan.unit_J * (eN * perp.tau1_J) - tan.HJ)
        resid = (eN * (geom.jacobi_N + perp.flat(op))
                 - tau1 * hsc
                 + np.outer(tan.Hb_frame[1:], tan.Hb_frame[1:])
                 - perp.def_of(tan.HJ)
                 - 0.5 * (eN * geom.ric_N - star + div_term) * np.diag(perp.eps))
        return _report(which, resid, consts, tol)

    if which == "E-main-3i":
        form = geom.div_11(perp.Tsharp_field, mode="perp")
        Hperp = np.array([perp.eps[i] * tan.Hb_frame[1 + i] for i in range(p)])
        TtH = Tt @ Hperp
        resid = np.zeros(p)
        for j in range(p):
            resid[j] = float(form @ geom.F[1 + j]) + 2.0 * perp.eps[j] * TtH[j]
        return _report(which, resid, consts, tol)

    if which == "E-main-2i":
        star = _constant(consts, constants, "s_star_tan",
                         lambda: s_star(geom, "tan"))
        resid = (eN * geom.ric_N + star - 4.0 * perp.norm_T
                 - geom.div_vector(tan.unit_J * (eN * perp.tau1_J) + tan.HJ))
        return _report(which, [resid], consts, tol)

    raise SpecializationError(f"unknown flow equation {which!r}")


def el_geodesic_riemannian_flow(geom, tol=DEFAULT_TOL, guard_tol=1e-8):
    """The geodesic Riemannian flow system read from the bundle ``geom``."""
    if geom.n != 1:
        raise SpecializationError("geodesic Riemannian flow needs rank-one D-tilde")
    norm_h, norm_ht = geom.tan.norm_h, geom.perp.norm_h
    if norm_h > guard_tol or norm_ht > guard_tol:
        raise SpecializationError(
            f"not a geodesic Riemannian flow: |h|^2={norm_h:.2e}, "
            f"|h~|^2={norm_ht:.2e}")
    p = geom.p
    iso = geom.jacobi_N - (geom.ric_N / p) * np.diag(geom.perp.eps)
    mixed = np.array([geom.ricci_frame[0, 1 + i] for i in range(p)])
    return {
        "E-1geod-Riem": _report("E-1geod-Riem", iso, {}, tol),
        "geodriemflowiii": _report("geodriemflowiii", mixed, {}, tol),
        "ric_N": geom.ric_N,
        "p": p,
    }


# ----------------------------------------------------------------------
# volume-preserving regimes

def el_volume_preserving(struct, points, which, metric_fn=None, tol=DEFAULT_TOL):
    """Recover the multiplier from equation traces and report consistency.

    ``which`` selects a specialization: 'flow' for the rank-one-distribution
    system, 'codim1' for codimension-one foliations, 'contact-T' for the
    non-integrability action on contact-type structures.
    """
    pts = [points] if isinstance(points[0], (int, float)) else list(points)

    if which == "flow":
        rows = []
        for pt in pts:
            geom = PointGeometry(struct, pt, metric_fn=metric_fn)
            eN, At, Tt, hsc, tau1 = _flow_data(geom)
            perp, p = geom.perp, geom.p
            Q = perp.norm_T
            lhs = eN * (geom.jacobi_N - perp.flat(Tt @ Tt))
            trace = sum(perp.eps[i] * lhs[i, i] for i in range(p))
            lam1 = eN * geom.ric_N - (2.0 / p) * trace
            lam2 = 4.0 * Q - eN * geom.ric_N
            mixed = max(abs(geom.ricci_frame[0, 1 + i]) for i in range(p))
            rows.append({
                "point": list(pt),
                "lambda_from_E-main-1K": lam1,
                "lambda_from_E-main-2K": lam2,
                "lambda_gap": abs(lam1 - lam2),
                "ric_mixed_norm": mixed,
                "norm_Tt": Q,
                "closed_form_1K": (p - 4.0) / p * Q,
                "closed_form_2K": 3.0 * Q,
            })
        gap = max(r["lambda_gap"] for r in rows)
        return {"which": which, "rows": rows, "max_gap": gap,
                "consistent": gap <= tol}

    if which == "codim1":
        rows = []
        for pt in pts:
            geom = PointGeometry(struct, pt, metric_fn=metric_fn)
            rep = el_codim1(geom, "codim1folgenvar", tol=tol)
            rep2 = el_codim1(geom, "codimoneEL2", tol=tol)
            rows.append({"point": list(pt),
                         "genvar_norm": rep.norm,
                         "divA_norm": rep2.norm,
                         "lambda": rep.constants.get("lambda")})
        gap = max(max(r["genvar_norm"], r["divA_norm"]) for r in rows)
        return {"which": which, "rows": rows, "max_gap": gap,
                "consistent": gap <= tol}

    if which == "contact-T":
        if struct.n != 1:
            raise SpecializationError(
                "the contact-action multiplier system needs rank-one D-tilde")
        rows = []
        for pt in pts:
            geom = PointGeometry(struct, pt, metric_fn=metric_fn)
            n, p, perp = geom.n, geom.p, geom.perp
            Q = perp.norm_T
            tr_tcal = float(np.trace(perp.tcal))
            lam_perp_trace = -2.0 * tr_tcal / p - 0.5 * Q
            tr_phi = sum(geom.tan.eps[a] * perp.phi_T[a, a] for a in range(n))
            lam_top_trace = 0.5 * Q - tr_phi / n
            # closed forms as printed for contact structures (see docs)
            lam_perp_paper = 4.0 - p / 2.0
            lam_top_paper = 1.5 * p
            rows.append({
                "point": list(pt),
                "norm_Tt": Q,
                "lambda_perp_trace": lam_perp_trace,
                "lambda_top_trace": lam_top_trace,
                "lambda_perp_paper": lam_perp_paper,
                "lambda_top_paper": lam_top_paper,
                "paper_gap": abs(lam_perp_paper - lam_top_paper),
                "trace_gap": abs(lam_perp_trace - lam_top_trace),
            })
        gap = max(r["paper_gap"] for r in rows)
        return {"which": which, "rows": rows, "max_gap": gap,
                "consistent": gap <= tol,
                "trace_gap": max(r["trace_gap"] for r in rows)}

    raise SpecializationError(f"unknown volume-preserving system {which!r}")


# ----------------------------------------------------------------------
# the non-integrability action

def el_tildeT_action(geom, constants=None, tol=DEFAULT_TOL):
    """ELtildeT1-3 read from the bundle ``geom``, as {name: ELReport}."""
    tan, perp = geom.tan, geom.perp
    n, p = geom.n, geom.p
    Q = perp.norm_T
    consts = {}
    tstar = _constant(consts, constants, "Tt_star",
                      lambda: (4.0 - p) / (2.0 * p) * Q)
    tstar2 = _constant(consts, constants, "T_star",
                       lambda: (2.0 + n) / (2.0 * n) * Q)

    r1 = (2.0 * perp.flat(perp.tcal)
          + (0.5 * Q + tstar) * np.diag(perp.eps))

    div_tth = perp.div_theta
    lamT = geom.lam(perp.theta_b, tan.theta_b - tan.alpha_b)
    r2 = np.zeros((n, p))
    for a in range(n):
        for i in range(p):
            r2[a, i] = (0.5 * (lamT[a, n + i] + lamT[n + i, a])
                        - 0.5 * (div_tth[a, n + i] + div_tth[n + i, a]))

    r3 = perp.phi_T[:n, :n] - (0.5 * Q - tstar2) * np.diag(tan.eps)

    return {
        "ELtildeT1": _report("ELtildeT1", r1, consts, tol),
        "ELtildeT2": _report("ELtildeT2", r2, consts, tol),
        "ELtildeT3": _report("ELtildeT3", r3, consts, tol),
    }


# ----------------------------------------------------------------------
# conformal change of a contact-type structure

def conformal_metric(struct, psi_ast, base_metric_fn=None):
    """The metric function of exp(-2 psi) g for the scalar expression
    ``psi_ast``; it returns fields, as ``struct.metric_at`` does."""
    base = base_metric_fn or struct.metric_at

    def fn(xs):
        # the factor as a 1 x 1 field, which broadcasts against the metric
        c = jexp(-2.0 * exprlang.evaluate(psi_ast, list(xs), struct.params))
        return as_field([[c]], xs) * base(xs)

    return fn


def conformal_check(struct, psi_ast, point, y_index=0, metric_fn=None, tol=DEFAULT_TOL):
    """Residual of the flow equation E-main-3i under g -> exp(-2 psi) g.

    Returns (direct, closed_form): the directly recomputed half-residual and
    the closed-form prediction (1-p)/2 e^psi g(T~sharp_xi Y, grad psi); the
    two are computed by fully independent paths.
    """
    base = PointGeometry(struct, point, metric_fn=metric_fn)
    if base.n != 1:
        raise SpecializationError("conformal check needs rank-one D-tilde")
    p = base.p

    hat = PointGeometry(struct, point,
                        metric_fn=conformal_metric(struct, psi_ast, metric_fn))
    hperp = hat.perp
    form = hat.div_11(hperp.Tsharp_field, mode="perp")
    Hperp = np.array([hperp.eps[i] * hat.tan.Hb_frame[1 + i] for i in range(p)])
    TtH = hperp.Tsharp_ops[0] @ Hperp
    TtH_vec = sum(hperp.eps[j] * TtH[j] * hat.F[1 + j] for j in range(p))

    # evaluate on the base-frame perp vector Y (a chart vector)
    Y = base.F[1 + y_index]
    direct = 0.5 * float(form @ Y) + float(TtH_vec @ hat.g0 @ Y)

    # closed form from base-structure data
    env = [value_of(x) for x in point]
    psi0 = exprlang.evaluate(psi_ast, env, struct.params)
    dpsi = gradients(exprlang.evaluate(psi_ast, base.seeds, struct.params), base.d)
    grad_psi = base.ginv0 @ dpsi
    bperp = base.perp
    TtY = bperp.Tsharp_ops[0] @ np.array(
        [bperp.eps[i] * float(base.Fb[1 + i] @ Y) for i in range(p)])
    TtY_vec = sum(bperp.eps[j] * TtY[j] * base.F[1 + j] for j in range(p))
    closed = 0.5 * (1.0 - p) * math.exp(psi0) * float(TtY_vec @ base.g0 @ grad_psi)
    return direct, closed


# ----------------------------------------------------------------------
# codimension-one foliations

def _codim1_data(geom):
    if geom.p != 1:
        raise SpecializationError("codimension-one equations need p = 1")
    eN = geom.perp.eps[0]
    AN = geom.tan.A_ops[0]
    tau1 = float(np.trace(AN))
    tau2 = float(np.trace(AN @ AN))
    ric_normal = float(geom.ricci_frame[geom.n, geom.n])
    return eN, AN, tau1, tau2, ric_normal


def el_codim1(geom, which, constants=None, tol=DEFAULT_TOL):
    """A codimension-one equation read from the bundle ``geom`` (p = 1)."""
    eN, AN, tau1, tau2, ric_normal = _codim1_data(geom)
    n = geom.n
    N0 = geom.F[n]
    tau1J = geom.tan.tau1_J
    n_tau1 = float(np.dot(gradients(tau1J, geom.d), N0))
    consts = {}

    if which == "codimoneEL1":
        star = _constant(consts, constants, "s_star_perp",
                         lambda: eN * ric_normal - 2.0 * eN * (n_tau1 - tau2))
        resid = tau1 * tau1 - tau2 + eN * star
        return _report(which, [resid], consts, tol)

    if which == "codimoneEL2":
        form = geom.div_11(geom.tan.A_field, mode="tan")
        dtau = gradients(tau1J, geom.d)
        resid = np.array([float((form - dtau) @ geom.F[a]) for a in range(n)])
        return _report(which, resid, consts, tol)

    if which == "codimoneEL3":
        star = _constant(consts, constants, "s_star_tan",
                         lambda: eN * ric_normal - (2.0 / n) * geom.perp.div_H)
        rhs = 0.5 * (2.0 * eN * (n_tau1 - tau1 * tau1)
                     + eN * (tau1 * tau1 - tau2) - star) * np.diag(geom.tan.eps)
        resid = geom.tan.nabla_N_hsc - tau1 * eN * geom.tan.h[:, :, 0] - rhs
        return _report(which, resid, consts, tol)

    if which == "codim1folgenvar":
        if n < 2:
            raise SpecializationError("volume-preserving foliation system needs n > 1")
        resid = (geom.tan.nabla_N_hsc - tau1 * eN * geom.tan.h[:, :, 0]
                 + (eN * (tau1 * tau1 - tau2) / (n - 1.0)) * np.diag(geom.tan.eps))
        consts["lambda"] = -eN * (tau1 * tau1 - tau2)
        return _report(which, resid, consts, tol)

    raise SpecializationError(f"unknown codimension-one equation {which!r}")


# ----------------------------------------------------------------------
# the equation registry

@dataclass(frozen=True)
class Equation:
    """A registered equation: the block sizes it needs (as text, for skip
    reasons), whether it applies to a structure, and its evaluator
    ``run(geom) -> ELReport`` on the caller's bundle at a point."""
    needs: str
    applies: object
    run: object


_ANY = ("any n and p", lambda s: True)
_FLOW = ("n = 1", lambda s: s.n == 1)
_CODIM1 = ("p = 1", lambda s: s.p == 1)

# Runners look the evaluators up as module attributes when called, so a
# wrapper installed on the module sees every registry call.  The three
# ELtildeT runners share one el_tildeT_action evaluation per bundle.
EQUATIONS = {
    **{eq: Equation(*_ANY, lambda geom, eq=eq: el_general_at(geom, eq))
       for eq in ("E-main-0i", "E-main-0ii", "E-main-0iii")},
    **{eq: Equation(*_FLOW, lambda geom, eq=eq: el_flow(geom, eq))
       for eq in ("E-main-1i", "E-main-3i", "E-main-2i")},
    **{eq: Equation(*_FLOW, lambda geom, eq=eq: geom.once(el_tildeT_action)[eq])
       for eq in ("ELtildeT1", "ELtildeT2", "ELtildeT3")},
    **{eq: Equation(*_CODIM1, lambda geom, eq=eq: el_codim1(geom, eq))
       for eq in ("codimoneEL1", "codimoneEL2", "codimoneEL3")},
    "codim1folgenvar": Equation(
        "p = 1 and n > 1", lambda s: s.p == 1 and s.n > 1,
        lambda geom: el_codim1(geom, "codim1folgenvar")),
}


def applicable(struct):
    """Names of the registered equations that apply to ``struct``, in
    registry order."""
    return [eq for eq, spec in EQUATIONS.items() if spec.applies(struct)]


def _diagonal_metric_jets(geom):
    """Values, gradients and Hessians of the diagonal metric entries, as
    nested lists of floats: g_ii, d_m g_ii at [i][m] and d_m d_k g_ii at
    [i][m][k]."""
    d = geom.d
    diag = geom.gJ.diagonal()
    hess = gradients(dshift(diag, d), d)                # [k][m][i] = d_k d_m g_ii
    return (values(diag).tolist(), gradients(diag, d).T.tolist(),
            hess.transpose(2, 1, 0).tolist())


def biregular_closed_forms(geom):
    """Coordinate formulas for orthogonal biregular foliated metrics.

    Assumes the leaves are level sets of x0 and the metric is diagonal; the
    distinguished distribution must span the leaf directions.  Returns the
    closed-form unit normal factor, Weingarten diagonal, tau_1/tau_2, the
    normal derivative of the scalar second fundamental form (diagonal), the
    leafwise divergence of A_N, and the y_i with their x0-derivatives.
    """
    d = geom.d
    offdiag = max(abs(geom.g0[i, j]) for i in range(d) for j in range(d) if i != j)
    if offdiag > 1e-12:
        raise SpecializationError("biregular closed forms require a diagonal metric")
    gv, dgv, hv = _diagonal_metric_jets(geom)
    a00 = abs(gv[0])
    sq = math.sqrt(a00)
    out = {"sqrt_g00": sq}
    y = []
    dy0 = []
    tau1 = 0.0
    tau2 = 0.0
    A_diag = []
    nabNh = []
    divA = []
    epsN = 1.0 if gv[0] > 0 else -1.0
    for i in range(1, d):
        gii = gv[i]
        gii0 = dgv[i][0]
        Ai = -0.5 / sq * gii0 / gii
        A_diag.append(Ai)
        yi = Ai
        y.append(yi)
        tau1 += Ai
        tau2 += Ai * Ai
        gii00 = hv[i][0][0]
        dlog00 = dgv[0][0] / a00 if a00 else 0.0
        nabNh.append(-epsN / (2.0 * a00)
                     * (gii00 - 0.5 * gii0 * dlog00 - gii0 * gii0 / gii))
        # d/dx0 of y_i for the coordinate ODE checks
        dy0.append(-0.5 / sq * (gii00 / gii - (gii0 / gii) ** 2)
                   + 0.25 * gii0 / gii * dgv[0][0] / (sq * a00))
    for i in range(1, d):
        gii = gv[i]
        term = 0.0
        # d_i ( -(1/(2 sqrt g00)) g_ii,0 / g_ii )
        gii0 = dgv[i][0]
        gii_i = dgv[i][i]
        gii0_i = hv[i][0][i]
        d_i_sq = 0.5 * dgv[0][i] / sq
        term += (-0.5 * (gii0_i * gii - gii0 * gii_i) / (gii * gii) / sq
                 + 0.5 * gii0 / gii * d_i_sq / a00)
        s1 = 0.0
        s2 = 0.0
        for a in range(1, d):
            Gaai = 0.5 * dgv[a][i] / gv[a]
            s1 += Gaai
            s2 += Gaai * dgv[a][0] / gv[a]
        term += (-0.5 / sq) * (dgv[i][0] / gv[i]) * s1 + 0.5 / sq * s2
        divA.append(term)
    out.update({"A_diag": A_diag, "tau1": tau1, "tau2": tau2,
                "nabla_N_hsc_diag": nabNh, "div_tan_AN": divA,
                "y": y, "dy_dx0": dy0, "eps_N": epsN})
    return out


def codim1_genvar_coordinate_residual(geom):
    """Residual of the coordinate volume-preserving system at one point."""
    cf = biregular_closed_forms(geom)
    y, dy = cf["y"], cf["dy_dx0"]
    nfol = len(y)
    if nfol < 2:
        raise SpecializationError("coordinate system needs n > 1")
    t1 = sum(y)
    t2 = sum(v * v for v in y)
    sq = cf["sqrt_g00"]
    res = [dy[i] - sq * (y[i] * t1 - (t1 * t1 - t2) / (nfol - 1.0))
           for i in range(nfol)]
    return max(abs(r) for r in res)


def bifoliated_iii_residual(geom):
    """Residual of the leafwise equation in biregular coordinates."""
    d = geom.d
    gv, dgv, hv = _diagonal_metric_jets(geom)
    a00 = abs(gv[0])
    sq = math.sqrt(a00)

    def y_val(i):
        return -0.5 / sq * dgv[i][0] / gv[i]

    def dy(i, m):
        # d_m y_i, assuming g00 constant along the leaves of interest
        return (-0.5 / sq * (hv[i][0][m] / gv[i] - dgv[i][0] * dgv[i][m] / gv[i] ** 2)
                + 0.25 * dgv[i][0] / gv[i] * dgv[0][m] / (sq * a00))

    worst = 0.0
    for i in range(1, d):
        acc = 0.0
        for a in range(1, d):
            if a == i:
                continue
            acc += dy(a, i)
            Gaai = 0.5 * dgv[a][i] / gv[a]
            acc += Gaai * (y_val(i) - y_val(a))
        worst = max(worst, abs(acc))
    return worst


def tau1_formula(chat, tau0, t):
    """Closed-form tau_1(t) for the umbilical volume-normalized branch."""
    k = math.sqrt(chat)
    D = (k + tau0) * math.exp(-2.0 * t * k) + (k - tau0)
    return k * (1.0 - 2.0 * (k - tau0) / D)
