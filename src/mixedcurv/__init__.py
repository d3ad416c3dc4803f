"""Numerical extrinsic geometry of distributions on pseudo-Riemannian charts."""

from .structure import ProductStructure, load_structure, adapted_frame, signature
from .geometry import (PointGeometry, divergence, identity_suite, mixed_scalar,
                       partial_ricci)

__all__ = [
    "ProductStructure",
    "load_structure",
    "adapted_frame",
    "signature",
    "PointGeometry",
    "divergence",
    "identity_suite",
    "mixed_scalar",
    "partial_ricci",
]
