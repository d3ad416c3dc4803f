"""Built-in structures with expected-value tables and criticality flags.

Each entry ships as a structure spec file under ``data/`` plus one row of the
:data:`ENTRIES` table: its expected quantities, criticality flags, optional
display frame and complement span (chart component texts) and notes.  Every
expected value carries a provenance tag: ``literature`` for closed-form values
printed in the source material, ``trivial`` for definitional zeros, and
``derived:<oracle>`` for values frozen from an independent derivation (the
oracle is named).  The test suite replays every table entry through the
geometry engine.  The table stays in Python: in the ``.spec`` files it would
change the ``spec_sha256`` reports embed, and a file of its own would need a
reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from importlib import resources

import numpy as np

from . import euler_lagrange as el
from . import exprlang
from .errors import SpecFormatError
from .geometry import BUNDLE_QUANTITIES, _scalar, bundle_value
from .jets import value_of, values
from .structure import load_structure


@dataclass(frozen=True)
class Expected:
    quantity: str
    value: object
    tol: float
    provenance: str


@dataclass
class GalleryEntry:
    name: str
    structure: object
    expected: list
    criticality: dict = field(default_factory=dict)
    reference_frame: list = None     # chart component expressions of a display frame
    swap_span: list = None           # complement spanning expressions, when closed-form
    notes: str = ""

    def reference_frame_at(self, geom):
        """The display frame's vectors (rows) at the bundle's point or
        nodes, the batch axes first."""
        return values([[exprlang.evaluate(c, geom.seeds, self.structure.params)
                        for c in vec] for vec in self.reference_frame])


def _zeros(names, tol):
    return [(q, 0.0, tol, "trivial") for q in names]


# the six main equations, all critical
_MAIN = {"E-main-0i": True, "E-main-0ii": True, "E-main-0iii": True,
         "E-main-1i": True, "E-main-3i": True, "E-main-2i": True}


# name -> expected rows (quantity, value, tol, provenance), criticality flags,
# and the optional reference_frame / swap_span component texts and notes.
# The order is the listing order of `mixedcurv gallery`.
ENTRIES = {
    "euclidean_product": {
        "expected": _zeros(("S_mix", "norm_h", "norm_h_tilde", "norm_T",
                            "norm_T_tilde", "g_HH", "g_HtHt", "div_H",
                            "div_H_tilde"), 1e-12),
        "criticality": {**_MAIN, "P-flows": True},
        "swap_span": [("0", "1", "0"), ("0", "0", "1")],
    },
    "lorentz_product": {
        "expected": _zeros(("S_mix", "norm_h", "norm_h_tilde", "norm_T",
                            "norm_T_tilde"), 1e-12) + [
            ("eps_tan", [-1.0], 0.0, "trivial"),
            ("eps_perp", [1.0, 1.0, 1.0], 0.0, "trivial"),
        ],
        "criticality": _MAIN,
        "swap_span": [("0", "1", "0", "0"), ("0", "0", "1", "0"),
                      ("0", "0", "0", "1")],
    },
    "r3_contact": {
        "expected": [
            ("ric_N", 0.0, 1e-8, "literature"),
            ("S_mix", 0.0, 1e-8, "literature"),
            ("H_norm", 0.0, 1e-9, "literature"),
            ("tau1_tilde", 0.0, 1e-9, "literature"),
            ("norm_T_tilde", 2.0, 1e-9, "literature"),
            ("At_reference", [[0.0, -1.0], [-1.0, 0.0]], 1e-9, "literature"),
            ("Ttsharp_reference", [[0.0, 1.0], [-1.0, 0.0]], 1e-9, "literature"),
            ("tcal_tilde_flat_prop", -1.0, 1e-9, "literature"),
            ("s_star_perp", -4.0, 1e-8, "derived:flow-formula"),
            ("s_star_tan", 8.0, 1e-8, "derived:flow-formula"),
        ],
        "criticality": {"E-main-0i": False, "E-main-0ii": True, "E-main-0iii": True,
                        "E-main-1i": False, "E-main-3i": True, "E-main-2i": True,
                        "ELtildeT1": True, "ELtildeT2": True, "ELtildeT3": True},
        "reference_frame": [("2", "-2*x2", "2*x1"), ("0", "2", "0")],
        "swap_span": [("2", "-2*x2", "2*x1"), ("0", "2", "0")],
        "notes": ("Contact metric structure on R^3 with the Reeb field 2 d/dz; "
                  "the displayed operator matrices live in the invariant frame "
                  "E1, E2."),
    },
    "s3_hopf": {
        "expected": [
            ("ric_N", 2.0, 1e-7, "literature"),
            ("S_mix", 2.0, 1e-7, "literature"),
            ("norm_h", 0.0, 1e-10, "derived:killing-field"),
            ("norm_h_tilde", 0.0, 1e-10, "derived:killing-field"),
            ("norm_T_tilde", 2.0, 1e-8, "literature"),
            ("sectional", 1.0, 1e-8, "derived:constant-curvature"),
            ("s_star_perp", -2.0, 1e-7, "derived:flow-formula"),
            ("s_star_tan", 6.0, 1e-7, "derived:flow-formula"),
        ],
        "criticality": {**_MAIN, "P-flows": True},
        "notes": ("Round 3-sphere in a stereographic chart with the Hopf "
                  "field spanning the distribution; the unit Killing field "
                  "generates a geodesic Riemannian flow."),
    },
    "s7_three_sasakian": {
        "expected": [
            ("S_mix", 12.0, 1e-6, "derived:round-sphere"),
            ("norm_T_tilde", 12.0, 1e-6, "literature"),
            ("norm_T", 0.0, 1e-9, "literature"),
            ("norm_h", 0.0, 1e-9, "derived:killing-fields"),
            ("norm_h_tilde", 0.0, 1e-9, "derived:killing-fields"),
            ("r_perp_prop", 3.0, 1e-7, "literature"),
            ("r_tan_prop", 4.0, 1e-7, "literature"),
            ("psi_tilde_prop", -4.0, 1e-7, "literature"),
            ("phi_T_tilde_prop", -4.0, 1e-7, "literature"),
            ("tcal_tilde_flat_prop", -3.0, 1e-7, "literature"),
        ],
        "criticality": {"E-main-0i": True, "E-main-0ii": True, "E-main-0iii": True,
                        "ELtildeT1": True, "ELtildeT2": True, "ELtildeT3": True},
        "notes": ("Unit 7-sphere with the three quaternionic Reeb fields; "
                  "entry accepted after numerically verifying the curvature "
                  "identities of the three contact structures and the "
                  "bracket closure of the spanning fields."),
    },
    "codim1_coth_tanh": {
        "expected": _zeros(("norm_T", "norm_T_tilde"), 1e-10) + [
            ("y_closed_form_residual", 0.0, 1e-9, "literature"),
            ("genvar_coordinate_residual", 0.0, 1e-8, "literature"),
            ("bifoliated_iii_residual", 0.0, 1e-9, "literature"),
        ],
        "criticality": {"codim1folgenvar": True, "codimoneEL2": True,
                        "codimoneEL3": True, "codimoneEL1": False},
        "swap_span": [("1", "0", "0")],
        "notes": ("Codimension-one foliation metric built from the explicit "
                  "coth/tanh solution of the volume-preserving system; "
                  "critical for all volume-preserving variations but not "
                  "for the domain-normalized ones pointwise."),
    },
    "codim1_tau_riccati": {
        "expected": [
            ("norm_T", 0.0, 1e-10, "trivial"),
            ("tau1_formula_residual", 0.0, 1e-9, "literature"),
            ("riccati_residual", 0.0, 1e-7, "derived:trace-elimination"),
            ("umbilical_residual", 0.0, 1e-9, "literature"),
        ],
        "criticality": {"codimoneEL2": True},
        "swap_span": [("1", "0", "0")],
        "notes": ("Totally umbilical codimension-one foliation whose mean "
                  "curvature follows the closed-form Riccati solution; "
                  "exercises the umbilical branch of the trace system."),
    },
    "warped_product": {
        "expected": _zeros(("norm_T", "norm_T_tilde"), 1e-10) + [
            (q, 1.0, 1e-9, "derived:warped-closed-form")
            for q in ("norm_h", "norm_h_tilde", "g_HH", "g_HtHt")
        ] + [("S_mix", -2.0, 1e-9, "derived:decomposition")],
        "criticality": {},
        "swap_span": [("0", "0", "1", "0"), ("0", "0", "0", "1")],
        "notes": ("Doubly warped product with both distributions integrable "
                  "and curved; the dual-swap test bed."),
    },
    "nil4_flow": {
        "expected": [
            ("ric_N", 0.5, 1e-9, "derived:nilpotent-curvature"),
            ("norm_h", 0.0, 1e-10, "derived:killing-field"),
            ("norm_h_tilde", 0.0, 1e-10, "derived:killing-field"),
            ("jacobi_eigs", [0.0, 0.25, 0.25], 1e-9, "derived:nilpotent-curvature"),
            ("geod_riem_iso_residual", 1.0 / 6.0, 1e-9,
             "derived:nilpotent-curvature"),
        ],
        "criticality": {"E-main-3i": True, "E-main-2i": True, "E-main-1i": False,
                        "P-flows": False},
        "swap_span": [("1", "0", "0", "0"), ("0", "1", "0", "-x0"),
                      ("0", "0", "1", "0")],
        "notes": ("Nilpotent circle-bundle metric over flat R^3 with an "
                  "anisotropic curvature form; a geodesic Riemannian flow "
                  "that deliberately violates the Jacobi-isotropy condition."),
    },
}


def list_entries():
    return list(ENTRIES)


def load_entry(name):
    if name not in ENTRIES:
        raise SpecFormatError(f"unknown gallery entry {name!r}; "
                              f"known: {', '.join(ENTRIES)}")
    row = ENTRIES[name]
    text = resources.files("mixedcurv").joinpath("data", f"{name}.spec").read_text()
    struct = load_structure(text)
    return GalleryEntry(
        name=name, structure=struct,
        expected=[Expected(*r) for r in row["expected"]],
        criticality=dict(row["criticality"]),
        reference_frame=_parse_vecs(struct, row.get("reference_frame")),
        swap_span=_parse_vecs(struct, row.get("swap_span")),
        notes=row.get("notes", ""))


def _parse_vecs(struct, texts):
    if texts is None:
        return None
    return [tuple(exprlang.parse(c, struct.dim, set(struct.params))
                  for c in vec) for vec in texts]


# ----------------------------------------------------------------------
# evaluation of expected quantities

def evaluate_quantity(entry, geom, quantity):
    """Engine value of a named expected quantity read from the bundle
    ``geom``: at its point, or one value per node over its nodes."""
    if quantity in BUNDLE_QUANTITIES:
        return bundle_value(geom, quantity)
    if quantity not in QUANTITIES:
        raise SpecFormatError(f"no evaluator for expected quantity {quantity!r}")
    return QUANTITIES[quantity](entry, geom)


def _prop(M, eps):
    """c when M diag(eps)^-1 = c I, else nan, over the batch."""
    M = M / eps[..., None, :]
    diag = np.diagonal(M, 0, -2, -1)
    off = np.max(np.abs(M - diag[..., None] * np.eye(M.shape[-1])), axis=(-2, -1))
    spread = np.max(np.abs(diag - diag[..., :1]), axis=-1)
    return _scalar(np.where((off > 1e-6) | (spread > 1e-6), np.nan, diag[..., 0]))


def _perp_operator_in_reference_frame(ops, entry, g):
    V = entry.reference_frame_at(g)
    n = g.n
    # the operator's chart matrix, then its components in the reference frame
    op = getattr(g.perp, ops)[..., 0, :, :]
    chart = np.einsum("...ji,...jm,...i,...in->...mn", op, g.F[..., n:, :],
                      g.perp.eps, g.Fb[..., n:, :])
    VgT = V @ g.g0
    return np.linalg.inv(VgT @ V.mT) @ (VgT @ chart @ V.mT)


def _y_closed_form_residual(entry, g):
    c1 = entry.structure.params["c1"]
    c2 = entry.structure.params["c2"]
    u = math.sqrt(c1) * (g.coords[..., 0] + c2)
    want = np.stack([-math.sqrt(c1) / np.tanh(u), -math.sqrt(c1) * np.tanh(u)], axis=-1)
    got = el.biregular_closed_forms(g)["y"]
    return _scalar(np.max(np.abs(np.sort(got) - np.sort(want)), axis=-1))


def _riccati_residual(entry, g):
    chat = entry.structure.params["chat"]
    tau0 = entry.structure.params["tau0"]
    t = g.coords[..., 0]
    h = 1e-5
    dtau = (el.tau1_formula(chat, tau0, t + h)
            - el.tau1_formula(chat, tau0, t - h)) / (2.0 * h)
    tau = el.tau1_formula(chat, tau0, t)
    return _scalar(abs(dtau - (tau * tau - chat)))


def _umbilical_residual(entry, g):
    # all principal curvatures coincide: A_N is a multiple of the identity
    eN, AN, tau1, tau2, _ = el._codim1_data(g)
    return _scalar(np.max(np.abs(AN - np.multiply.outer(tau1 / g.n, np.eye(g.n))),
                          axis=(-2, -1)))


# Evaluators of the gallery's own quantities, called as f(entry, geom) on the
# caller's bundle; the bundle quantities (S_mix, norm_h, eps_tan, ...) come from
# ``geometry.BUNDLE_QUANTITIES``.
QUANTITIES = {
    "H_norm": lambda e, g: _scalar(np.max(np.abs(g.tan.H0), axis=-1)),
    "tau1_tilde": lambda e, g: _scalar(np.trace(g.perp.A_ops[..., 0, :, :],
                                                axis1=-2, axis2=-1)),
    "s_star_perp": lambda e, g: el.s_star(g, "perp"),
    "s_star_tan": lambda e, g: el.s_star(g, "tan"),
    # a generic plane section
    "sectional": lambda e, g: g.sectional(g.F[..., 0, :] + 0.3 * g.F[..., 1, :],
                                          g.F[..., 1, :] - 0.2 * g.F[..., g.d - 1, :]),
    "At_reference": partial(_perp_operator_in_reference_frame, "A_ops"),
    "Ttsharp_reference": partial(_perp_operator_in_reference_frame, "Tsharp_ops"),
    "r_perp_prop": lambda e, g: _prop(g.perp.r, g.perp.eps),
    "r_tan_prop": lambda e, g: _prop(g.tan.r, g.tan.eps),
    "psi_tilde_prop": lambda e, g: _prop(g.perp.psi, g.tan.eps),
    "phi_T_tilde_prop": lambda e, g: _prop(g.perp.phi_T[..., :g.n, :g.n], g.tan.eps),
    "tcal_tilde_flat_prop": lambda e, g: _prop(g.perp.flat(g.perp.tcal), g.perp.eps),
    "jacobi_eigs": lambda e, g: np.linalg.eigvalsh(g.jacobi_N),
    "genvar_coordinate_residual": lambda e, g: el.codim1_genvar_coordinate_residual(g),
    "y_closed_form_residual": _y_closed_form_residual,
    "tau1_formula_residual": lambda e, g: _scalar(abs(value_of(g.tan.tau1_J) - el.tau1_formula(
        e.structure.params["chat"], e.structure.params["tau0"], g.coords[..., 0]))),
    "bifoliated_iii_residual": lambda e, g: el.bifoliated_iii_residual(g),
    "riccati_residual": _riccati_residual,
    "umbilical_residual": _umbilical_residual,
    "geod_riem_iso_residual":
        lambda e, g: el.el_geodesic_riemannian_flow(g)["E-1geod-Riem"].norm,
}
