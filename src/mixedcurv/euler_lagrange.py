"""Euler-Lagrange residuals of the total-mixed-scalar-curvature action.

Every equation is assembled term by term from a :class:`PointGeometry` bundle
and reported as the max-abs norm of its residual in the adapted frame.  The
evaluators read the bundle their caller built, on trailing axes as the
bundle is written: over N nodes a residual has the node axis first and a
report one norm per node, at a point a float norm.  ``el_general`` also
takes a (structure, point) pair and builds the bundle of the structure's
own metric.  The starred scalars entering the general and flow systems
can be supplied by the caller as ``constants`` (a domain mean from
:func:`domain_mean`, say) or are evaluated pointwise; the contact-action
and codimension-one constants are always pointwise.  The report records
each constant and its source, and every verdict reads ``DEFAULT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import exprlang
from .errors import DomainError, SingularEvaluationError, SpecializationError
from .geometry import PointGeometry, _scalar, metric_density, node_chunks
from .jets import as_field, check_finite, dense, dshift, gradients, jexp, seed, value_of, values

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
        geom = PointGeometry(struct, c, metric_fn=metric_fn)
        return (geom.volume_density * np.asarray(reader(geom), dtype=float).T).T

    vals = node_chunks(pts, struct.dim, chunk)
    return np.asarray(pairwise_sum(x * w for x, w in zip(vals, wts))).tolist()


def metric_field(metric_fn, xs, d):
    """The metric function's field at the seeds ``xs`` as an array jet.  An
    arithmetic error or a non-finite value raises SingularEvaluationError,
    which ``node_chunks`` names by its node, as in a bundle."""
    try:
        g = dense(metric_fn(xs), d)
    except ArithmeticError as exc:
        raise SingularEvaluationError(
            f"arithmetic error in the metric ({type(exc).__name__}: {exc})") from None
    return check_finite(g)


def node_integrals(struct, q, chunk_fn):
    """The integrals over the box of ``q`` of the k columns that
    ``chunk_fn`` gives at a chunk of N nodes, an (N, k) array (see
    ``node_chunks``), as a list of k floats: each value is weighted by its
    node's weight and summed in node order by ``pairwise_sum``."""
    struct.require_box(q.box)
    pts, wts = grid_points(q)
    cols = node_chunks(pts, struct.dim, chunk_fn).T.tolist()
    return [pairwise_sum(x * w for x, w in zip(col, wts)) for col in cols]


def volume(struct, q, metric_fn=None):
    """Volume of the box.  It reads no derivative, so its chunks of nodes
    evaluate the metric on order-1 array jets (``metric_field``) and build
    no bundle."""
    def chunk(c):
        g = metric_field(metric_fn or struct.metric_at, seed(c, 1), struct.dim)
        return metric_density(values(g))[:, None]

    return node_integrals(struct, q, chunk)[0]


def domain_mean(struct, reader, q):
    """Mean of ``reader``, as :func:`integrate` takes it, with respect to the
    metric volume element: the integrals of (reader, 1) from one pass."""
    total, vol = integrate(struct, lambda geom: np.stack(
        [np.broadcast_to(reader(geom), geom.batch), np.ones(geom.batch)], axis=-1), q)
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


# ----------------------------------------------------------------------
# reports

@dataclass
class ELReport:
    """An equation's residual (frame components) and its max-abs norm; on a
    node bundle the residual has the node axis first, and the norm and the
    verdict (norm <= ``DEFAULT_TOL``) are arrays over the nodes."""
    equation: str
    residual: list
    norm: float
    constants: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return self.norm <= DEFAULT_TOL

    def to_dict(self):
        return {
            "equation": self.equation,
            "residual": self.residual,
            "residual_norm": np.asarray(self.norm).tolist(),
            "constants": self.constants,
            "tolerance": DEFAULT_TOL,
            "verdict": np.asarray(self.verdict).tolist(),
        }


def _report(geom, eq, resid, constants):
    """The report of ``resid``, with the bundle's batch axes first and at
    least one axis after them: one norm per member of the batch."""
    arr = np.asarray(resid, float)
    lead = len(geom.batch)
    norm = _scalar(np.max(np.abs(arr), axis=tuple(range(lead, arr.ndim))))
    return ELReport(eq, arr.tolist(), norm, constants)


def _diag(c, eps):
    """c diag(eps) over the batch, for a scalar c and a block's signs eps."""
    e = np.asarray(c)[..., None] * eps
    return e[..., None, :] * np.eye(e.shape[-1])


def _scaled(c, M):
    """c M for a scalar c and matrices M over the batch."""
    return np.asarray(c)[..., None, None] * M


def _trace(M):
    return _scalar(np.trace(M, axis1=-2, axis2=-1))


def _along(fJ, geom, k):
    """The derivative of the jet scalar fJ along the frame vector e_k."""
    return _scalar(np.einsum("m...,...m->...", gradients(fJ, geom.d), geom.F[..., k, :]))


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
            + A.phi_h[..., B.sl, B.sl] + A.phi_T[..., B.sl, B.sl]
            + A.psi - B.def_of(A.HJ)
            + B.flat(B.kcal)
            - _diag(0.5 * (geom.smix - star + B.div_H - A.div_H), B.eps))


def el_general(struct, point, which, constants=None):
    """The general system at ``point`` of the structure's own metric: builds
    the bundle for :func:`el_general_at`.  At another metric, build the
    bundle with its ``metric_fn`` and read it with :func:`el_general_at`."""
    return el_general_at(PointGeometry(struct, point), which, constants=constants)


def el_general_at(geom, which, constants=None):
    """E-main-0i, 0ii or 0iii read from the bundle ``geom``."""
    tan, perp = geom.tan, geom.perp
    n = geom.n
    consts = {}

    if which in ("E-main-0i", "E-main-0iii"):
        B = perp if which == "E-main-0i" else tan
        star = _constant(consts, constants, f"s_star_{B.side}",
                         lambda: s_star(geom, B.side))
        return _report(geom, which, _el_block(geom, B, B.dual, star), consts)

    if which == "E-main-0ii":
        M = geom.to_frame02(geom.div_12(tan.alpha_field)) - perp.div_theta
        H, Ht = tan.Hb_frame, perp.Hb_frame
        full = (2.0 * geom.pair_vec_12(tan.theta_b, Ht)
                + geom.pair_vec_12(perp.theta_b - perp.alpha_b, H)
                + 0.5 * (H[..., :, None] * Ht[..., None, :]
                         + Ht[..., :, None] * H[..., None, :])
                + 2.0 * geom.lam(perp.alpha_b, tan.theta_b)
                + geom.lam(tan.alpha_b, perp.alpha_b)
                + geom.lam(tan.theta_b, perp.theta_b))
        # the (D-tilde, D) block of each tensor, symmetrized
        resid = (0.5 * (M[..., :n, n:] + M[..., n:, :n].mT)
                 + 0.5 * (full[..., :n, n:] + full[..., n:, :n].mT)
                 - tan.delta_of(tan.HJ))
        return _report(geom, which, resid, consts)

    raise SpecializationError(f"unknown equation {which!r}")


# ----------------------------------------------------------------------
# flows (rank-one distinguished distribution)

def _flow_data(geom):
    if geom.n != 1:
        raise SpecializationError("flow equations need rank-one D-tilde")
    eN = _scalar(geom.tan.eps[..., 0])
    At = geom.perp.A_ops[..., 0, :, :]
    Tt = geom.perp.Tsharp_ops[..., 0, :, :]
    hsc = _scaled(eN, geom.perp.h[..., 0])
    return eN, At, Tt, hsc, _trace(At)


def el_flow(geom, which, constants=None):
    """E-main-1i, 3i or 2i read from the bundle ``geom`` (rank-one D-tilde)."""
    eN, At, Tt, hsc, tau1 = _flow_data(geom)
    tan, perp = geom.tan, geom.perp
    p = geom.p
    consts = {}

    if which == "E-main-1i":
        star = _constant(consts, constants, "s_star_perp",
                         lambda: s_star(geom, "perp"))
        op = At @ At - Tt @ Tt + (Tt @ At - At @ Tt)
        div_term = geom.div_vector(tan.unit_J * (eN * perp.tau1_J)[..., None] - tan.HJ)
        H = tan.Hb_frame[..., 1:]
        resid = (_scaled(eN, geom.jacobi_N + perp.flat(op))
                 - _scaled(tau1, hsc)
                 + H[..., :, None] * H[..., None, :]
                 - perp.def_of(tan.HJ)
                 - _diag(0.5 * (eN * geom.ric_N - star + div_term), perp.eps))
        return _report(geom, which, resid, consts)

    if which == "E-main-3i":
        form = geom.div_11(perp.Tsharp_field, mode="perp")
        eps = perp.eps
        TtH = (Tt @ (eps * tan.Hb_frame[..., 1:])[..., None])[..., 0]
        resid = (np.einsum("...m,...jm->...j", form, geom.F[..., 1:, :])
                 + 2.0 * eps * TtH)
        return _report(geom, which, resid, consts)

    if which == "E-main-2i":
        star = _constant(consts, constants, "s_star_tan",
                         lambda: s_star(geom, "tan"))
        resid = (eN * geom.ric_N + star - 4.0 * perp.norm_T
                 - geom.div_vector(tan.unit_J * (eN * perp.tau1_J)[..., None] + tan.HJ))
        return _report(geom, which, np.asarray(resid)[..., None], consts)

    raise SpecializationError(f"unknown flow equation {which!r}")


def el_geodesic_riemannian_flow(geom, guard_tol=1e-8):
    """The geodesic Riemannian flow system read from the bundle ``geom``."""
    if geom.n != 1:
        raise SpecializationError("geodesic Riemannian flow needs rank-one D-tilde")
    norm_h, norm_ht = geom.tan.norm_h, geom.perp.norm_h
    bad = (np.asarray(norm_h) > guard_tol) | (np.asarray(norm_ht) > guard_tol)
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])         # the first failing member
        raise SpecializationError(
            f"not a geodesic Riemannian flow: |h|^2={np.asarray(norm_h)[at]:.2e}, "
            f"|h~|^2={np.asarray(norm_ht)[at]:.2e}")
    p = geom.p
    iso = geom.jacobi_N - _diag(geom.ric_N / p, geom.perp.eps)
    return {
        "E-1geod-Riem": _report(geom, "E-1geod-Riem", iso, {}),
        "geodriemflowiii": _report(geom, "geodriemflowiii", geom.ricci_frame[..., 0, 1:], {}),
        "ric_N": geom.ric_N,
        "p": p,
    }


# ----------------------------------------------------------------------
# volume-preserving regimes

def el_volume_preserving(struct, points, which):
    """Recover the multiplier from equation traces and report consistency.

    ``which`` selects a specialization: 'flow' for the rank-one-distribution
    system, 'codim1' for codimension-one foliations, 'contact-T' for the
    non-integrability action on contact-type structures.  The points are
    read as one node bundle, with one row per point.
    """
    pts = [points] if isinstance(points[0], (int, float)) else list(points)
    if which not in ("flow", "codim1", "contact-T"):
        raise SpecializationError(f"unknown volume-preserving system {which!r}")
    if which == "contact-T" and struct.n != 1:
        raise SpecializationError(
            "the contact-action multiplier system needs rank-one D-tilde")
    geom = PointGeometry(struct, np.array(pts, dtype=float))
    n, p, perp = geom.n, geom.p, geom.perp

    if which == "flow":
        eN, At, Tt, hsc, tau1 = _flow_data(geom)
        Q = perp.norm_T
        lhs = _scaled(eN, geom.jacobi_N - perp.flat(Tt @ Tt))
        lam1 = eN * geom.ric_N - (2.0 / p) * np.einsum("...i,...ii->...", perp.eps, lhs)
        lam2 = 4.0 * Q - eN * geom.ric_N
        cols = {"lambda_from_E-main-1K": lam1, "lambda_from_E-main-2K": lam2,
                "lambda_gap": np.abs(lam1 - lam2),
                "ric_mixed_norm": np.max(np.abs(geom.ricci_frame[..., 0, 1:]), axis=-1),
                "norm_Tt": Q, "closed_form_1K": (p - 4.0) / p * Q, "closed_form_2K": 3.0 * Q}
        gap = cols["lambda_gap"]
    elif which == "codim1":
        rep = el_codim1(geom, "codim1folgenvar")
        rep2 = el_codim1(geom, "codimoneEL2")
        cols = {"genvar_norm": rep.norm, "divA_norm": rep2.norm,
                "lambda": rep.constants["lambda"]}
        gap = np.maximum(rep.norm, rep2.norm)
    else:
        Q = perp.norm_T
        lam_perp = -2.0 * np.trace(perp.tcal, axis1=-2, axis2=-1) / p - 0.5 * Q
        lam_top = 0.5 * Q - np.einsum("...a,...aa->...", geom.tan.eps,
                                      perp.phi_T[..., :n, :n]) / n
        # closed forms as printed for contact structures (see docs)
        paper_perp, paper_top = 4.0 - p / 2.0, 1.5 * p
        cols = {"norm_Tt": Q, "lambda_perp_trace": lam_perp, "lambda_top_trace": lam_top,
                "lambda_perp_paper": paper_perp, "lambda_top_paper": paper_top,
                "paper_gap": abs(paper_perp - paper_top),
                "trace_gap": np.abs(lam_perp - lam_top)}
        gap = cols["paper_gap"]
    cols = {k: np.broadcast_to(v, (len(pts),)).tolist() for k, v in cols.items()}
    out = {"which": which, "max_gap": float(np.max(gap)),
           "rows": [{"point": list(pt), **{k: v[i] for k, v in cols.items()}}
                    for i, pt in enumerate(pts)]}
    out["consistent"] = out["max_gap"] <= DEFAULT_TOL
    if which == "contact-T":
        out["trace_gap"] = max(cols["trace_gap"])
    return out


# ----------------------------------------------------------------------
# the non-integrability action

def el_tildeT_action(geom):
    """ELtildeT1-3 read from the bundle ``geom``, as {name: ELReport}; the
    starred constants are the pointwise closed forms in |T~|^2."""
    tan, perp = geom.tan, geom.perp
    n, p = geom.n, geom.p
    Q = perp.norm_T
    consts = {}
    tstar = _constant(consts, None, "Tt_star", lambda: (4.0 - p) / (2.0 * p) * Q)
    tstar2 = _constant(consts, None, "T_star", lambda: (2.0 + n) / (2.0 * n) * Q)

    r1 = 2.0 * perp.flat(perp.tcal) + _diag(0.5 * Q + tstar, perp.eps)

    # the (D-tilde, D) blocks, symmetrized
    div_tth = perp.div_theta
    lamT = geom.lam(perp.theta_b, tan.theta_b - tan.alpha_b)
    r2 = (0.5 * (lamT[..., :n, n:] + lamT[..., n:, :n].mT)
          - 0.5 * (div_tth[..., :n, n:] + div_tth[..., n:, :n].mT))

    r3 = perp.phi_T[..., :n, :n] - _diag(0.5 * Q - tstar2, tan.eps)

    return {
        "ELtildeT1": _report(geom, "ELtildeT1", r1, consts),
        "ELtildeT2": _report(geom, "ELtildeT2", r2, consts),
        "ELtildeT3": _report(geom, "ELtildeT3", r3, consts),
    }


# ----------------------------------------------------------------------
# conformal change of a contact-type structure

def conformal_metric(struct, psi_ast):
    """The metric function of exp(-2 psi) g for the scalar expression
    ``psi_ast``; it returns fields, as ``struct.metric_at`` does."""
    def fn(xs):
        # the factor as a 1 x 1 field, which broadcasts against the metric
        c = jexp(-2.0 * exprlang.evaluate(psi_ast, list(xs), struct.params))
        return as_field([[c]], xs) * struct.metric_at(xs)

    return fn


def conformal_check(struct, psi_ast, point, y_index=0):
    """Residual of the flow equation E-main-3i under g -> exp(-2 psi) g.

    Returns (direct, closed_form): the directly recomputed half-residual and
    the closed-form prediction (1-p)/2 e^psi g(T~sharp_xi Y, grad psi); the
    two are computed by fully independent paths.
    """
    base = PointGeometry(struct, point)
    if base.n != 1:
        raise SpecializationError("conformal check needs rank-one D-tilde")
    p = base.p

    hat = PointGeometry(struct, point, metric_fn=conformal_metric(struct, psi_ast))
    hperp, heps = hat.perp, hat.perp.eps
    form = hat.div_11(hperp.Tsharp_field, mode="perp")
    TtH_vec = (heps * (hperp.Tsharp_ops[0] @ (heps * hat.tan.Hb_frame[1:]))) @ hat.F[1:]

    # evaluate on the base-frame perp vector Y (a chart vector)
    Y = base.F[1 + y_index]
    direct = 0.5 * float(form @ Y) + float(TtH_vec @ hat.g0 @ Y)

    # closed form from base-structure data
    env = [value_of(x) for x in point]
    psi0 = exprlang.evaluate(psi_ast, env, struct.params)
    dpsi = gradients(exprlang.evaluate(psi_ast, base.seeds, struct.params), base.d)
    grad_psi = base.ginv0 @ dpsi
    beps = base.perp.eps
    TtY_vec = (beps * (base.perp.Tsharp_ops[0] @ (beps * (base.Fb[1:] @ Y)))) @ base.F[1:]
    closed = 0.5 * (1.0 - p) * math.exp(psi0) * float(TtY_vec @ base.g0 @ grad_psi)
    return direct, closed


# ----------------------------------------------------------------------
# codimension-one foliations

def _codim1_data(geom):
    if geom.p != 1:
        raise SpecializationError("codimension-one equations need p = 1")
    AN = geom.tan.A_ops[..., 0, :, :]
    return (_scalar(geom.perp.eps[..., 0]), AN, _trace(AN), _trace(AN @ AN),
            _scalar(geom.ricci_frame[..., geom.n, geom.n]))


def el_codim1(geom, which):
    """A codimension-one equation read from the bundle ``geom`` (p = 1)."""
    eN, AN, tau1, tau2, ric_normal = _codim1_data(geom)
    n = geom.n
    tau1J = geom.tan.tau1_J
    n_tau1 = _along(tau1J, geom, n)
    hsc = _scaled(tau1 * eN, geom.tan.h[..., 0])
    consts = {}

    if which == "codimoneEL1":
        star = _constant(consts, None, "s_star_perp",
                         lambda: eN * ric_normal - 2.0 * eN * (n_tau1 - tau2))
        resid = tau1 * tau1 - tau2 + eN * star
        return _report(geom, which, np.asarray(resid)[..., None], consts)

    if which == "codimoneEL2":
        form = geom.div_11(geom.tan.A_field, mode="tan")
        dtau = np.moveaxis(gradients(tau1J, geom.d), 0, -1)
        resid = np.einsum("...m,...am->...a", form - dtau, geom.F[..., :n, :])
        return _report(geom, which, resid, consts)

    if which == "codimoneEL3":
        star = _constant(consts, None, "s_star_tan",
                         lambda: eN * ric_normal - (2.0 / n) * geom.perp.div_H)
        rhs = _diag(0.5 * (2.0 * eN * (n_tau1 - tau1 * tau1)
                           + eN * (tau1 * tau1 - tau2) - star), geom.tan.eps)
        resid = geom.tan.nabla_N_hsc - hsc - rhs
        return _report(geom, which, resid, consts)

    if which == "codim1folgenvar":
        if n < 2:
            raise SpecializationError("volume-preserving foliation system needs n > 1")
        resid = (geom.tan.nabla_N_hsc - hsc
                 + _diag(eN * (tau1 * tau1 - tau2) / (n - 1.0), geom.tan.eps))
        consts["lambda"] = -eN * (tau1 * tau1 - tau2)
        return _report(geom, which, resid, consts)

    raise SpecializationError(f"unknown codimension-one equation {which!r}")


# ----------------------------------------------------------------------
# the equation registry

@dataclass(frozen=True)
class Equation:
    """A registered equation: the block sizes it needs (as text, for skip
    reasons), whether it applies to a structure, and its evaluator
    ``run(geom) -> ELReport`` on the caller's bundle, at a point or over
    nodes."""
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
    """Values, gradients and Hessians of the diagonal metric entries, the
    indices first and the batch axes last: g_ii at [i], d_m g_ii at [i][m]
    and d_m d_k g_ii at [i][m][k], each a float or an array over the
    batch."""
    d = geom.d
    diag = geom.gJ.diagonal(0, -2, -1)
    hess = gradients(dshift(diag), d)                   # [k][m]...[i] = d_k d_m g_ii
    return (np.moveaxis(values(diag), -1, 0), np.moveaxis(gradients(diag, d), -1, 0),
            np.moveaxis(hess, -1, 0).swapaxes(1, 2))


def biregular_closed_forms(geom):
    """Coordinate formulas for orthogonal biregular foliated metrics.

    Assumes the leaves are level sets of x0 and the metric is diagonal; the
    distinguished distribution must span the leaf directions.  Returns the
    closed-form unit normal factor, Weingarten diagonal, tau_1/tau_2, the
    normal derivative of the scalar second fundamental form (diagonal), the
    leafwise divergence of A_N, and the y_i with their x0-derivatives; a
    per-leaf-index value is an array with that index last.
    """
    d = geom.d
    if np.max(np.abs(geom.g0 - geom.g0 * np.eye(d))) > 1e-12:
        raise SpecializationError("biregular closed forms require a diagonal metric")
    gv, dgv, hv = _diagonal_metric_jets(geom)
    a00 = abs(gv[0])
    sq = np.sqrt(a00)
    epsN = np.where(gv[0] > 0, 1.0, -1.0)
    # the leaf entries g_ii, d_0 g_ii and d_0 d_0 g_ii, i >= 1
    gi, gi0, gi00 = gv[1:], dgv[1:, 0], hv[1:, 0, 0]
    A = -0.5 / sq * gi0 / gi
    nabNh = (-epsN / (2.0 * a00)
             * (gi00 - 0.5 * gi0 * (dgv[0, 0] / a00) - gi0 * gi0 / gi))
    # d/dx0 of y_i for the coordinate ODE checks
    dy0 = (-0.5 / sq * (gi00 / gi - (gi0 / gi) ** 2)
           + 0.25 * gi0 / gi * dgv[0, 0] / (sq * a00))
    # d_i ( -(1/(2 sqrt g00)) g_ii,0 / g_ii ), then the Christoffel terms
    leaf = np.arange(1, d)
    divA = (-0.5 * (hv[leaf, 0, leaf] * gi - gi0 * dgv[leaf, leaf]) / (gi * gi) / sq
            + 0.5 * gi0 / gi * (0.5 * dgv[0, 1:] / sq) / a00)
    G = 0.5 * dgv[1:, 1:] / gi[:, None]                  # [a][i]: Gamma^a_{ai}
    divA = divA + ((-0.5 / sq) * (gi0 / gi) * G.sum(0)
                   + 0.5 / sq * (G * (gi0 / gi)[:, None]).sum(0))
    last = partial(np.moveaxis, source=0, destination=-1)
    return {"sqrt_g00": _scalar(sq), "A_diag": last(A), "tau1": _scalar(A.sum(0)),
            "tau2": _scalar((A * A).sum(0)), "nabla_N_hsc_diag": last(nabNh),
            "div_tan_AN": last(divA), "y": last(A), "dy_dx0": last(dy0),
            "eps_N": _scalar(epsN)}


def codim1_genvar_coordinate_residual(geom):
    """Residual of the coordinate volume-preserving system, over the batch."""
    cf = biregular_closed_forms(geom)
    y, dy = cf["y"], cf["dy_dx0"]
    nfol = y.shape[-1]
    if nfol < 2:
        raise SpecializationError("coordinate system needs n > 1")
    t1 = np.sum(y, axis=-1)[..., None]
    t2 = np.sum(y * y, axis=-1)[..., None]
    sq = np.asarray(cf["sqrt_g00"])[..., None]
    res = dy - sq * (y * t1 - (t1 * t1 - t2) / (nfol - 1.0))
    return _scalar(np.max(np.abs(res), axis=-1))


def bifoliated_iii_residual(geom):
    """Residual of the leafwise equation in biregular coordinates, over the
    batch."""
    gv, dgv, hv = _diagonal_metric_jets(geom)
    a00 = abs(gv[0])
    sq = np.sqrt(a00)
    gi, gi0 = gv[1:, None], dgv[1:, 0, None]            # [a][.]: g_aa, d_0 g_aa
    y = -0.5 / sq * dgv[1:, 0] / gv[1:]
    # [a][m]: d_m y_a, assuming g00 constant along the leaves of interest
    dy = (-0.5 / sq * (hv[1:, 0, 1:] / gi - gi0 * dgv[1:, 1:] / gi ** 2)
          + 0.25 * gi0 / gi * dgv[0, 1:] / (sq * a00))
    # sum over a != i of d_i y_a + Gamma^a_{ai} (y_i - y_a)
    terms = dy + 0.5 * dgv[1:, 1:] / gi * (y[None] - y[:, None])
    k = np.arange(len(y))
    terms[k, k] = 0.0
    return _scalar(np.max(np.abs(terms.sum(0)), axis=0))


def tau1_formula(chat, tau0, t):
    """Closed-form tau_1(t) for the umbilical volume-normalized branch, at a
    float t or an array of them."""
    k = math.sqrt(chat)
    D = (k + tau0) * np.exp(-2.0 * t * k) + (k - tau0)
    return k * (1.0 - 2.0 * (k - tau0) / D)
