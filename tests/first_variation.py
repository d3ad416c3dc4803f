"""The first-variation check as two bundles: the oracle of
``variations.verify_first_variation``.

``verify_first_variation`` reads g, the span W and the variation B once at
the point's seeds and builds one bundle whose member 0 is g and whose other
members are the signed FD steps g +- hB; the right-hand sides are read at
member 0.  Here the right-hand sides come from a bundle of their own at g
(``geom0``), which also supplies the seeds, g and B, and the FD side from a
second bundle over the six signed steps, which evaluates the span again.
"""

import math
from operator import attrgetter

import numpy as np

from mixedcurv import variations as va
from mixedcurv.errors import SpecializationError
from mixedcurv.geometry import PointGeometry
from mixedcurv.jets import values


def first_variation_by_two_bundles(struct, v, point, formulas=None, steps=va.FD_STEPS,
                                   tol=1e-5):
    """The reports of ``verify_first_variation``, formula for formula."""
    if formulas is None:
        formulas = va.PERP_FORMULAS if v.klass == "perp" else va.TAN_FORMULAS
    geom0 = PointGeometry(struct, point)
    gJ = geom0.gJ
    B = v.B_at(geom0.seeds, gmat=gJ)
    g0 = geom0.g0
    signed = np.array([s for h in steps for s in (h, -h)])
    gs = g0 + signed[:, None, None] * values(B)
    neg0, det0 = np.sum(np.linalg.eigvalsh(g0) < 0.0), abs(np.linalg.det(g0))
    if (np.any(np.sum(np.linalg.eigvalsh(gs) < 0.0, axis=-1) != neg0)
            or np.any(np.abs(np.linalg.det(gs)) < 0.5 * det0)):
        raise SpecializationError("variation step leaves the metric cone")
    bundle = PointGeometry(struct, point, metric_fn=lambda _: gJ + signed[:, None, None] * B)
    rhs_eng = va._RHS(geom0, B)

    out = {}
    for f in formulas:
        at = attrgetter(va.FORMULAS[f][1])(bundle)
        fd = [float(at[2 * k] - at[2 * k + 1]) / (2.0 * h) for k, h in enumerate(steps)]
        rhs = rhs_eng.rhs(f)
        disc = [abs(x - rhs) for x in fd]
        scale = max(abs(rhs), max(abs(x) for x in fd))
        if scale < va.ZERO_FLOOR:
            out[f] = va.VariationReport(f, fd, rhs, disc, None, True)
            continue
        r = steps[-2] / steps[-1]
        fd_ext = (fd[-1] * r * r - fd[-2]) / (r * r - 1.0)
        if disc[-1] < 5e-11 * max(1.0, scale):
            order = None
        else:
            order = math.log(max(disc[0], 1e-300) / disc[-1]) / math.log(steps[0] / steps[-1])
        verdict = min(disc[-1], abs(fd_ext - rhs)) <= tol * max(1.0, scale)
        out[f] = va.VariationReport(f, fd, rhs, disc, order, verdict)
    return out
