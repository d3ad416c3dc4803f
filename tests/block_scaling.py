"""The starred scalars s* from the metric alone: scale one block, differentiate.

Scale one block of the metric by a constant factor phi and keep the other:

- the complement block D: g_phi = g + (phi - 1) Q^T g Q, with Q = I - P
  (``variations._perp_scaled_metric``);
- the distribution block D-tilde: g_phi = g + (phi - 1) P^T g P.

P is the g-orthogonal projector onto D-tilde (``tangent_projector_jets``),
so the two blocks stay g_phi-orthogonal and dvol_phi = phi^(k/2) dvol, k
the rank of the scaled block.  The starred scalar of that side is

    s*_side = (2/k) d/dphi [S_mix dvol]_phi / dvol   at phi = 1,

with S_mix dvol from the frame-free ``geometry.smix_density`` and the
derivative a Richardson extrapolation of central differences at the steps
``STEPS``.  Nothing here reads an adapted frame, so the oracle shares no
code with ``euler_lagrange.s_star``, which assembles s* from the blocks'
frame quantities.
"""

from mixedcurv.geometry import PointGeometry, smix_density
from mixedcurv.jets import as_field, dense
from mixedcurv.variations import _perp_scaled_metric, tangent_projector_jets

STEPS = (1e-3, 5e-4)


def _tan_scaled_metric(struct, factor):
    """Scale the D-tilde block of the metric by a spatially constant factor."""
    def fn(xs):
        g = dense(struct.metric_at(xs), struct.dim)
        P = tangent_projector_jets(struct, xs, gmat=g)
        return as_field(g + (factor - 1.0) * (P.mT @ g @ P), xs)

    return fn


def scaled_geometry(struct, point, side, factor):
    """The bundle at ``point`` of g with the ``side`` block ('perp' for D,
    'tan' for D-tilde) scaled by ``factor``."""
    scaled = _perp_scaled_metric if side == "perp" else _tan_scaled_metric
    return PointGeometry(struct, point, metric_fn=scaled(struct, factor))


def _smix_dvol(struct, point, side, factor):
    smix, dvol = smix_density(scaled_geometry(struct, point, side, factor))
    return smix * dvol


def s_star(struct, point, side):
    """s*_side at a point, or an array of them at an (N, d) array of nodes."""
    k = struct.dim - struct.n if side == "perp" else struct.n
    coarse, fine = ((_smix_dvol(struct, point, side, 1.0 + h)
                     - _smix_dvol(struct, point, side, 1.0 - h)) / (2.0 * h) for h in STEPS)
    ratio = (STEPS[0] / STEPS[1]) ** 2
    deriv = fine + (fine - coarse) / (ratio - 1.0)
    return (2.0 / k) * deriv / smix_density(PointGeometry(struct, point))[1]
