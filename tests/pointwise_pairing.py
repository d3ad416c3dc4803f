"""The J_mix gradient pairing node by node: the reference of
``variations.jmix_gradient_pairing``.

``jmix_gradient_pairing`` reads one bundle over each chunk of quadrature
nodes through ``euler_lagrange.integrate``.  This loop builds one per-point
bundle at each node, assembles the same integrand there and sums the
weighted values in node order, and stays here as the oracle of the tests
that check the node-bundle form.
"""

import numpy as np

from mixedcurv import variations as va
from mixedcurv.euler_lagrange import grid_points, pairwise_sum
from mixedcurv.geometry import PointGeometry


def pairing_by_points(struct, v, q, metric_fn=None):
    """The integral over the box of ``q`` of d/dt S_mix dvol paired with the
    variation ``v``, one per-point bundle per node."""
    pts, wts = grid_points(q)

    def one(pt, w):
        geom = PointGeometry(struct, pt, metric_fn=metric_fn)
        e = va._RHS(geom, v.B_at(geom.seeds, gmat=geom.gJ))
        trB = float(np.trace(geom.ginv0 @ e.B0))
        dS = (sum(e.rhs(f) for f in va._SMIX_TERMS)
              + 0.5 * trB * (geom.smix - geom.tan.div_H - geom.perp.div_H))
        return dS * geom.volume_density * w

    return pairwise_sum(one(pt, w) for pt, w in zip(pts, wts))
