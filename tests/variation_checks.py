"""Checks of a metric variation that the engine does not run: the block
decomposition of B (``classify``) and the projection lemma for
t-dependent vectors (``verify_projection_lemma``).
"""

import numpy as np

from mixedcurv import variations as va
from mixedcurv.errors import ClassificationError
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import order1, seed, values


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


def verify_projection_lemma(struct, v, point, xfield, step=va.FD_STEPS[-1]):
    """Central differences with the step ``step`` of the g_t-projections of
    X(t) against the stated formulas."""
    if v.klass != "perp":
        raise ClassificationError("the projection lemma is for perp-variations")
    va._check_step(step)
    pt = list(point)

    def proj_parts(t):
        P = values(va.tangent_projector_jets(struct, pt, gmat=v.metric_fn(t)(pt)))
        X = np.asarray(xfield(t), float)
        return P @ X, X - P @ X

    geom0 = PointGeometry(struct, point)
    g0 = struct.metric_at(pt)
    P0 = values(va.tangent_projector_jets(struct, pt, gmat=g0))
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
