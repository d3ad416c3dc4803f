"""Numerical extrinsic geometry of distributions on pseudo-Riemannian charts."""

from .structure import ProductStructure, load_structure, signature
from .geometry import PointGeometry, identity_suite

__all__ = [
    "ProductStructure",
    "load_structure",
    "signature",
    "PointGeometry",
    "identity_suite",
]
