"""The volume-normalized relation as six box passes: the oracle of
``variations.verify_bar_relation``.

``verify_bar_relation`` reads g, the span W and the variation B once per
node chunk in each of its two passes.  Here every quantity of its report is
a box integral of its own, as the relation's definition reads: the volume
and the integral of tr B-sharp at g (``integrate``), the volume of each
g + tB (``volume`` at ``v.metric_fn(+-t)``), the volume and J_mix of each
normalized metric (``integrate`` at ``_perp_scaled_metric``), the FD of
J_mix along g + tB over two bundles per chunk of support nodes, and the
s* mean (``domain_mean``).  Each pass evaluates B again at its nodes.
"""

import numpy as np

from mixedcurv import euler_lagrange as el
from mixedcurv import variations as va
from mixedcurv.geometry import PointGeometry, node_chunks, smix_density
from mixedcurv.jets import seed, values


def derivative_by_two_bundles(struct, v, q, t):
    """d/dt of J_mix at t = 0 by central FD: over each chunk of the nodes
    inside the bump, one bundle at g + tB and one at g - tB."""
    pts, wts = el.grid_points(q)
    keep = [v.box is None or va._inside(pt, v.box) for pt in pts]

    def chunk(c):
        xs = seed(c, 2)
        g, W = struct.metric_at(xs), struct.dtilde_at(xs)
        B = v.B_at(xs, gmat=g, span=W)
        (sp, dp), (sm, dm) = (
            smix_density(PointGeometry(struct, c, metric_fn=lambda _, s=s: g + s * B,
                                       dtilde_fn=lambda _: W))
            for s in (t, -t))
        return sp * dp - sm * dm

    diffs = iter(node_chunks([pt for pt, k in zip(pts, keep) if k], struct.dim, chunk))
    return el.pairwise_sum(next(diffs) * w if k else 0.0
                           for k, w in zip(keep, wts)) / (2.0 * t)


def bar_relation_by_passes(struct, v, q, t_step=2e-3, sstar_grid=None):
    """The report of ``verify_bar_relation``, field for field."""
    vol0, int_trB = el.integrate(struct, lambda geom: np.stack([np.ones(geom.batch), np.trace(
        geom.ginv0 @ values(v.B_at(geom.seeds, gmat=geom.gJ)), axis1=-2, axis2=-1)], axis=-1), q)
    p = struct.dim - struct.n
    vols, jbars, phis = {}, {}, {}
    for s in (t_step, -t_step):
        gt = v.metric_fn(s)
        phis[s] = (el.volume(struct, q, metric_fn=gt) / vol0) ** (-2.0 / p)
        fn = va._perp_scaled_metric(struct, phis[s], base_metric_fn=gt)
        vols[s], jbars[s] = el.integrate(struct, lambda geom: np.stack(
            [np.ones(geom.batch), smix_density(geom)[0]], axis=-1), q, metric_fn=fn)
    djbar = (jbars[t_step] - jbars[-t_step]) / (2.0 * t_step)
    dj = derivative_by_two_bundles(struct, v, q, t_step)
    dphi = (phis[t_step] - phis[-t_step]) / (2.0 * t_step)
    q_star = q if sstar_grid is None else el.QuadratureSpec(
        box=q.box, grid=sstar_grid, rule=q.rule)
    star_mean = el.domain_mean(struct, lambda geom: el.s_star(geom, "perp"), q_star)
    dphi_expected = -(1.0 / p) * int_trB / vol0
    return {
        "volume_drift": max(abs(vols[s] - vol0) / vol0 for s in vols),
        "dJ_bar": djbar,
        "dJ": dj,
        "s_star_mean": star_mean,
        "int_trace_B": int_trB,
        "relation_residual": abs(djbar - (dj - 0.5 * star_mean * int_trB)),
        "dphi_fd": dphi,
        "dphi_expected": dphi_expected,
        "dphi_residual": abs(dphi - dphi_expected),
    }
