"""The critical-metric examples of the paper: the volume-preserving
multiplier systems and the conformal change of a contact-type structure.

``el_volume_preserving`` recovers the Lagrange multiplier of a
volume-preserving specialization from traces of its equations, read off one
node bundle with the library's equation blocks; ``conformal_check``
evaluates the flow equation E-main-3i at exp(-2 psi) g directly and by its
closed form from the unchanged metric.  The acceptance criteria on critical
metrics and the multiplier tests read them.
"""

import math

import numpy as np

from mixedcurv import euler_lagrange as el
from mixedcurv import exprlang
from mixedcurv.errors import SpecializationError
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import as_field, gradients, jexp, value_of


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
        eN, At, Tt, hsc, tau1 = el._flow_data(geom)
        Q = perp.norm_T
        lhs = el._scaled(eN, geom.jacobi_N - perp.flat(Tt @ Tt))
        lam1 = eN * geom.ric_N - (2.0 / p) * np.einsum("...i,...ii->...", perp.eps, lhs)
        lam2 = 4.0 * Q - eN * geom.ric_N
        cols = {"lambda_from_E-main-1K": lam1, "lambda_from_E-main-2K": lam2,
                "lambda_gap": np.abs(lam1 - lam2),
                "ric_mixed_norm": np.max(np.abs(geom.ricci_frame[..., 0, 1:]), axis=-1),
                "norm_Tt": Q, "closed_form_1K": (p - 4.0) / p * Q, "closed_form_2K": 3.0 * Q}
        gap = cols["lambda_gap"]
    elif which == "codim1":
        rep = el.el_codim1(geom, "codim1folgenvar")
        rep2 = el.el_codim1(geom, "codimoneEL2")
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
    out["consistent"] = out["max_gap"] <= el.DEFAULT_TOL
    if which == "contact-T":
        out["trace_gap"] = max(cols["trace_gap"])
    return out


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
