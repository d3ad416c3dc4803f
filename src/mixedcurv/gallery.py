"""Built-in structures with expected-value tables and criticality flags.

Each entry ships as a structure spec file under ``data/`` plus a table of
expected quantities.  Every expected value carries a provenance tag:
``literature`` for closed-form values printed in the source material, ``trivial``
for definitional zeros, and ``derived:<oracle>`` for values frozen from an
independent derivation (the oracle is named).  The test suite replays every
table entry through the geometry engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from operator import attrgetter

import numpy as np

from . import exprlang
from .errors import SpecFormatError
from .structure import load_structure

ENTRY_NAMES = [
    "euclidean_product",
    "lorentz_product",
    "r3_contact",
    "s3_hopf",
    "s7_three_sasakian",
    "codim1_coth_tanh",
    "codim1_tau_riccati",
    "warped_product",
    "nil4_flow",
]


@dataclass(frozen=True)
class Expected:
    quantity: str
    value: object
    tol: float
    provenance: str


@dataclass
class GalleryEntry:
    name: str
    spec_text: str
    structure: object
    expected: list
    criticality: dict = field(default_factory=dict)
    reference_frame: list = None     # chart component expressions of a display frame
    swap_span: list = None           # complement spanning expressions, when closed-form
    notes: str = ""

    def reference_frame_at(self, point):
        env = list(point)
        return [np.array([exprlang.evaluate(c, env, self.structure.params)
                          for c in vec]) for vec in self.reference_frame]


def list_entries():
    return list(ENTRY_NAMES)


def _spec_text(name):
    ref = resources.files("mixedcurv").joinpath("data", f"{name}.spec")
    return ref.read_text()


def load_entry(name):
    if name not in ENTRY_NAMES:
        raise SpecFormatError(f"unknown gallery entry {name!r}; "
                              f"known: {', '.join(ENTRY_NAMES)}")
    text = _spec_text(name)
    struct = load_structure(text)
    entry = GalleryEntry(name=name, spec_text=text, structure=struct,
                         expected=[], criticality={})
    _populate(entry)
    return entry


def _parse_vecs(struct, texts):
    return [tuple(exprlang.parse(c, struct.dim, set(struct.params))
                  for c in vec) for vec in texts]


def _populate(e):
    name = e.name
    E = e.expected.append
    if name == "euclidean_product":
        for q in ("S_mix", "norm_h", "norm_h_tilde", "norm_T", "norm_T_tilde",
                  "g_HH", "g_HtHt", "div_H", "div_H_tilde"):
            E(Expected(q, 0.0, 1e-12, "trivial"))
        e.criticality = {"E-main-0i": True, "E-main-0ii": True, "E-main-0iii": True,
                         "E-main-1i": True, "E-main-3i": True, "E-main-2i": True,
                         "P-flows": True}
        e.swap_span = _parse_vecs(e.structure, [("0", "1", "0"), ("0", "0", "1")])

    elif name == "lorentz_product":
        for q in ("S_mix", "norm_h", "norm_h_tilde", "norm_T", "norm_T_tilde"):
            E(Expected(q, 0.0, 1e-12, "trivial"))
        E(Expected("eps_tan", [-1.0], 0.0, "trivial"))
        E(Expected("eps_perp", [1.0, 1.0, 1.0], 0.0, "trivial"))
        e.criticality = {"E-main-0i": True, "E-main-0ii": True, "E-main-0iii": True,
                         "E-main-1i": True, "E-main-3i": True, "E-main-2i": True}
        e.swap_span = _parse_vecs(e.structure, [("0", "1", "0", "0"),
                                                ("0", "0", "1", "0"),
                                                ("0", "0", "0", "1")])

    elif name == "r3_contact":
        E(Expected("ric_N", 0.0, 1e-8, "literature"))
        E(Expected("S_mix", 0.0, 1e-8, "literature"))
        E(Expected("H_norm", 0.0, 1e-9, "literature"))
        E(Expected("tau1_tilde", 0.0, 1e-9, "literature"))
        E(Expected("norm_T_tilde", 2.0, 1e-9, "literature"))
        E(Expected("At_reference", [[0.0, -1.0], [-1.0, 0.0]], 1e-9, "literature"))
        E(Expected("Ttsharp_reference", [[0.0, 1.0], [-1.0, 0.0]], 1e-9, "literature"))
        E(Expected("tcal_tilde_flat_prop", -1.0, 1e-9, "literature"))
        E(Expected("s_star_perp", -4.0, 1e-8, "derived:flow-formula"))
        E(Expected("s_star_tan", 8.0, 1e-8, "derived:flow-formula"))
        e.criticality = {"E-main-0i": False, "E-main-0ii": True, "E-main-0iii": True,
                         "E-main-1i": False, "E-main-3i": True, "E-main-2i": True,
                         "ELtildeT1": True, "ELtildeT2": True, "ELtildeT3": True}
        e.reference_frame = _parse_vecs(
            e.structure, [("2", "-2*x2", "2*x1"), ("0", "2", "0")])
        e.swap_span = _parse_vecs(
            e.structure, [("2", "-2*x2", "2*x1"), ("0", "2", "0")])
        e.notes = ("Contact metric structure on R^3 with the Reeb field 2 d/dz; "
                   "the displayed operator matrices live in the invariant frame "
                   "E1, E2.")

    elif name == "s3_hopf":
        E(Expected("ric_N", 2.0, 1e-7, "literature"))
        E(Expected("S_mix", 2.0, 1e-7, "literature"))
        E(Expected("norm_h", 0.0, 1e-10, "derived:killing-field"))
        E(Expected("norm_h_tilde", 0.0, 1e-10, "derived:killing-field"))
        E(Expected("norm_T_tilde", 2.0, 1e-8, "literature"))
        E(Expected("sectional", 1.0, 1e-8, "derived:constant-curvature"))
        E(Expected("s_star_perp", -2.0, 1e-7, "derived:flow-formula"))
        E(Expected("s_star_tan", 6.0, 1e-7, "derived:flow-formula"))
        e.criticality = {"E-main-0i": True, "E-main-0ii": True, "E-main-0iii": True,
                         "E-main-1i": True, "E-main-3i": True, "E-main-2i": True,
                         "P-flows": True}
        e.notes = ("Round 3-sphere in a stereographic chart with the Hopf "
                   "field spanning the distribution; the unit Killing field "
                   "generates a geodesic Riemannian flow.")

    elif name == "s7_three_sasakian":
        E(Expected("S_mix", 12.0, 1e-6, "derived:round-sphere"))
        E(Expected("norm_T_tilde", 12.0, 1e-6, "literature"))
        E(Expected("norm_T", 0.0, 1e-9, "literature"))
        E(Expected("norm_h", 0.0, 1e-9, "derived:killing-fields"))
        E(Expected("norm_h_tilde", 0.0, 1e-9, "derived:killing-fields"))
        E(Expected("r_perp_prop", 3.0, 1e-7, "literature"))
        E(Expected("r_tan_prop", 4.0, 1e-7, "literature"))
        E(Expected("psi_tilde_prop", -4.0, 1e-7, "literature"))
        E(Expected("phi_T_tilde_prop", -4.0, 1e-7, "literature"))
        E(Expected("tcal_tilde_flat_prop", -3.0, 1e-7, "literature"))
        e.criticality = {"E-main-0i": True, "E-main-0ii": True, "E-main-0iii": True,
                         "ELtildeT1": True, "ELtildeT2": True, "ELtildeT3": True}
        e.notes = ("Unit 7-sphere with the three quaternionic Reeb fields; "
                   "entry accepted after numerically verifying the curvature "
                   "identities of the three contact structures and the "
                   "bracket closure of the spanning fields.")

    elif name == "codim1_coth_tanh":
        E(Expected("norm_T", 0.0, 1e-10, "trivial"))
        E(Expected("norm_T_tilde", 0.0, 1e-10, "trivial"))
        E(Expected("y_closed_form_residual", 0.0, 1e-9, "literature"))
        E(Expected("genvar_coordinate_residual", 0.0, 1e-8, "literature"))
        E(Expected("bifoliated_iii_residual", 0.0, 1e-9, "literature"))
        e.criticality = {"codim1folgenvar": True, "codimoneEL2": True,
                         "codimoneEL3": True, "codimoneEL1": False}
        e.swap_span = _parse_vecs(e.structure, [("1", "0", "0")])
        e.notes = ("Codimension-one foliation metric built from the explicit "
                   "coth/tanh solution of the volume-preserving system; "
                   "critical for all volume-preserving variations but not "
                   "for the domain-normalized ones pointwise.")

    elif name == "codim1_tau_riccati":
        E(Expected("norm_T", 0.0, 1e-10, "trivial"))
        E(Expected("tau1_formula_residual", 0.0, 1e-9, "literature"))
        E(Expected("riccati_residual", 0.0, 1e-7, "derived:trace-elimination"))
        E(Expected("umbilical_residual", 0.0, 1e-9, "literature"))
        e.criticality = {"codimoneEL2": True}
        e.swap_span = _parse_vecs(e.structure, [("1", "0", "0")])
        e.notes = ("Totally umbilical codimension-one foliation whose mean "
                   "curvature follows the closed-form Riccati solution; "
                   "exercises the umbilical branch of the trace system.")

    elif name == "warped_product":
        E(Expected("norm_T", 0.0, 1e-10, "trivial"))
        E(Expected("norm_T_tilde", 0.0, 1e-10, "trivial"))
        E(Expected("norm_h", 1.0, 1e-9, "derived:warped-closed-form"))
        E(Expected("norm_h_tilde", 1.0, 1e-9, "derived:warped-closed-form"))
        E(Expected("g_HH", 1.0, 1e-9, "derived:warped-closed-form"))
        E(Expected("g_HtHt", 1.0, 1e-9, "derived:warped-closed-form"))
        E(Expected("S_mix", -2.0, 1e-9, "derived:decomposition"))
        e.criticality = {}
        e.swap_span = _parse_vecs(e.structure, [("0", "0", "1", "0"),
                                                ("0", "0", "0", "1")])
        e.notes = ("Doubly warped product with both distributions integrable "
                   "and curved; the dual-swap test bed.")

    elif name == "nil4_flow":
        E(Expected("ric_N", 0.5, 1e-9, "derived:nilpotent-curvature"))
        E(Expected("norm_h", 0.0, 1e-10, "derived:killing-field"))
        E(Expected("norm_h_tilde", 0.0, 1e-10, "derived:killing-field"))
        E(Expected("jacobi_eigs", [0.0, 0.25, 0.25], 1e-9,
                   "derived:nilpotent-curvature"))
        E(Expected("geod_riem_iso_residual", 1.0 / 6.0, 1e-9,
                   "derived:nilpotent-curvature"))
        e.criticality = {"E-main-3i": True, "E-main-2i": True, "E-main-1i": False,
                         "P-flows": False}
        e.swap_span = _parse_vecs(e.structure, [("1", "0", "0", "0"),
                                                ("0", "1", "0", "-x0"),
                                                ("0", "0", "1", "0")])
        e.notes = ("Nilpotent circle-bundle metric over flat R^3 with an "
                   "anisotropic curvature form; a geodesic Riemannian flow "
                   "that deliberately violates the Jacobi-isotropy condition.")

    else:
        raise SpecFormatError(f"no expected table for {name!r}")


# ----------------------------------------------------------------------
# evaluation of expected quantities

def evaluate_quantity(entry, geom, quantity):
    """Engine value of a named expected quantity at a bundled point."""
    import numpy as np
    from . import euler_lagrange as el

    g = geom
    direct = {"S_mix": "smix", "norm_h": "tan.norm_h", "norm_h_tilde": "perp.norm_h",
              "norm_T": "tan.norm_T", "norm_T_tilde": "perp.norm_T",
              "g_HH": "tan.gHH", "g_HtHt": "perp.gHH",
              "div_H": "tan.div_H", "div_H_tilde": "perp.div_H", "ric_N": "ric_N"}
    if quantity in direct:
        return attrgetter(direct[quantity])(g)
    if quantity == "eps_tan":
        return list(g.tan.eps)
    if quantity == "eps_perp":
        return list(g.perp.eps)
    if quantity == "H_norm":
        return float(np.max(np.abs(g.tan.H0)))
    if quantity == "tau1_tilde":
        return float(np.trace(g.perp.A_ops[0]))
    if quantity == "s_star_perp":
        return el.s_star(g, "perp")
    if quantity == "s_star_tan":
        return el.s_star(g, "tan")
    if quantity == "sectional":
        # a generic plane section
        X = g.F[0] + 0.3 * g.F[1]
        Y = g.F[1] - 0.2 * g.F[g.d - 1]
        return g.sectional(X, Y)
    if quantity in ("At_reference", "Ttsharp_reference"):
        vecs = entry.reference_frame_at(g.point)
        comp = np.array([[float(v @ g.g0 @ w) for w in vecs] for v in vecs])
        op = g.perp.A_ops[0] if quantity == "At_reference" else g.perp.Tsharp_ops[0]
        # operator chart matrix, then components in the reference frame
        chart = np.zeros((g.d, g.d))
        for i in range(g.p):
            for j in range(g.p):
                chart += op[j, i] * np.outer(g.F[g.n + j],
                                             g.perp.eps[i] * g.Fb[g.n + i])
        cinv = np.linalg.inv(comp)
        rows = np.array([[float(vecs[k] @ g.g0 @ (chart @ vecs[l]))
                          for l in range(len(vecs))] for k in range(len(vecs))])
        return cinv @ rows
    if quantity == "r_perp_prop":
        return _prop_or_nan(g.perp.r @ np.linalg.inv(np.diag(g.perp.eps)))
    if quantity == "r_tan_prop":
        M = g.tan.r @ np.linalg.inv(np.diag(g.tan.eps))
        return _prop_or_nan(M)
    if quantity == "psi_tilde_prop":
        return _prop_or_nan(g.perp.psi @ np.linalg.inv(np.diag(g.tan.eps)))
    if quantity == "phi_T_tilde_prop":
        return _prop_or_nan(g.perp.phi_T[:g.n, :g.n]
                            @ np.linalg.inv(np.diag(g.tan.eps)))
    if quantity == "tcal_tilde_flat_prop":
        return _prop_or_nan(g.perp.flat(g.perp.tcal)
                            @ np.linalg.inv(np.diag(g.perp.eps)))
    if quantity == "jacobi_eigs":
        return sorted(np.linalg.eigvalsh(g.jacobi_N))
    if quantity == "genvar_coordinate_residual":
        return el.codim1_genvar_coordinate_residual(entry.structure, g.point)
    if quantity == "y_closed_form_residual":
        import math
        c1 = entry.structure.params["c1"]
        c2 = entry.structure.params["c2"]
        u = math.sqrt(c1) * (g.point[0] + c2)
        want = [-math.sqrt(c1) / math.tanh(u), -math.sqrt(c1) * math.tanh(u)]
        got = el.biregular_closed_forms(entry.structure, g.point)["y"]
        return max(abs(a - b) for a, b in zip(sorted(got), sorted(want)))
    if quantity == "tau1_formula_residual":
        from .jets import value_of
        chat = entry.structure.params["chat"]
        tau0 = entry.structure.params["tau0"]
        return abs(value_of(g.tan.tau1_J)
                   - el.tau1_formula(chat, tau0, g.point[0]))
    if quantity == "bifoliated_iii_residual":
        return el.bifoliated_iii_residual(entry.structure, g.point)
    if quantity == "riccati_residual":
        chat = entry.structure.params["chat"]
        tau0 = entry.structure.params["tau0"]
        t = g.point[0]
        h = 1e-5
        dtau = (el.tau1_formula(chat, tau0, t + h)
                - el.tau1_formula(chat, tau0, t - h)) / (2.0 * h)
        tau = el.tau1_formula(chat, tau0, t)
        return abs(dtau - (tau * tau - chat))
    if quantity == "umbilical_residual":
        # all principal curvatures coincide: A_N is a multiple of the identity
        eN, AN, tau1, tau2, _ = el._codim1_data(g)
        return float(np.max(np.abs(AN - (tau1 / g.n) * np.eye(g.n))))
    if quantity == "geod_riem_iso_residual":
        rep = el.el_geodesic_riemannian_flow(entry.structure, g.point)
        return rep["E-1geod-Riem"].norm
    raise SpecFormatError(f"no evaluator for expected quantity {quantity!r}")


def _prop_or_nan(M):
    off = float(np.max(np.abs(M - np.diag(np.diag(M)))))
    diag = np.diag(M)
    if off > 1e-6 or float(np.max(np.abs(diag - diag[0]))) > 1e-6:
        return float("nan")
    return float(diag[0])
