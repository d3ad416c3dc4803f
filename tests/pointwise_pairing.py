"""The J_mix gradient pairing, over node bundles and node by node.

``jmix_gradient_pairing`` reads one bundle over each chunk of quadrature
nodes through ``euler_lagrange.integrate``, and ``pairing_by_points``
builds one per-point bundle at each node, assembles the same integrand
there and sums the weighted values in node order.  The second is the
oracle of the first: together they check ``integrate`` and the first
variations of ``variations._RHS`` on node bundles against per-point ones.
"""

import numpy as np

from mixedcurv import variations as va
from mixedcurv.errors import ClassificationError
from mixedcurv.euler_lagrange import grid_points, integrate, pairwise_sum
from mixedcurv.geometry import PointGeometry

# identity (b): S_mix = s_ex + s~_ex + |T|^2 + |T~|^2 + div H + div H~
SMIX_TERMS = ("E-h2T2-D1b", "E-h2T2-D1", "E-T-gen", "E-tildeT-gen")


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
        e = va._RHS(geom, v.B_at(geom.seeds, gmat=geom.gJ))
        trB = np.trace(geom.ginv0 @ e.B0, axis1=-2, axis2=-1)
        return (sum(e.rhs(f) for f in SMIX_TERMS)
                + 0.5 * trB * (geom.smix - geom.tan.div_H - geom.perp.div_H))

    return integrate(struct, dS, q)


def pairing_by_points(struct, v, q, metric_fn=None):
    """The integral over the box of ``q`` of d/dt S_mix dvol paired with the
    variation ``v``, one per-point bundle per node."""
    pts, wts = grid_points(q)

    def one(pt, w):
        geom = PointGeometry(struct, pt, metric_fn=metric_fn)
        e = va._RHS(geom, v.B_at(geom.seeds, gmat=geom.gJ))
        trB = float(np.trace(geom.ginv0 @ e.B0))
        dS = (sum(e.rhs(f) for f in SMIX_TERMS)
              + 0.5 * trB * (geom.smix - geom.tan.div_H - geom.perp.div_H))
        return dS * geom.volume_density * w

    return pairwise_sum(one(pt, w) for pt, w in zip(pts, wts))
