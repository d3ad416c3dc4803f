"""The three benchmark workloads: their inputs, their items and their checks.

Every workload draws its inputs from a fixed pool that ``record_refs.py``
generated on the seed commit, so every item has a stored reference output.
The run seed only chooses which pool members enter the job and in which
order; the library itself only ever sees points, variations and boxes.

An item is one closed-loop unit of work: the caller issues the next item
only after the previous one returns.  ``Item.run(lib)`` calls the library
and returns ``(values, failed)``:
``values`` maps a name to ``(value, amp)`` and ``failed`` lists verdicts that
did not pass.  ``amp`` is the factor by which a central difference with step
``t`` amplifies a change in its inputs (``1 / (2 t)``); direct values have
``amp = 1``.  A value matches its reference when it moves by at most
``1e-12 * amp * max(1, |ref|)``.
"""

from __future__ import annotations

import math
import random

POOL_SEED = 20261017
DEFAULT_SEED = 1
HELD_OUT_SEED = 907

TOL = 1e-12          # the repository's rule for how far a result may move
VERDICT_TOL = 1e-6   # the CLI's default residual tolerance
NONCRITICAL_FACTOR = 10.0

# ----------------------------------------------------------------------
# pointwise: the per-point verification behind `verify identities|el|gallery`

POINT_POOL = 12
# Items per pass for each gallery entry.  s7 is 4 of 14 items (the top 29%
# of item times), so p80 lands inside the s7 block, and p50 lands inside
# the 4-D block (lorentz_product and nil4_flow), away from both cliffs.
POINTWISE_MIX = {
    "euclidean_product": 1,
    "lorentz_product": 2,
    "r3_contact": 1,
    "s3_hopf": 1,
    "s7_three_sasakian": 4,
    "codim1_coth_tanh": 1,
    "codim1_tau_riccati": 1,
    "warped_product": 1,
    "nil4_flow": 2,
}
CLI_ENTRY = "r3_contact"
CLI_ARGS = ("--random", "2", "--seed", "20260808")
CLI_SUITES = ("identities", "el", "gallery")

# ----------------------------------------------------------------------
# quadrature: action-level calls on a moderate grid

QUAD_ENTRIES = ("r3_contact", "s3_hopf")
QUAD_GRID = 6
QUAD_SSTAR_GRID = 3
QUAD_BOX_SHARE = 0.65       # half-width of the box as a share of the domain's
QUAD_BUMP_CELLS = 3         # bump support per axis, in quadrature cells
QUAD_POOL = 12
QUAD_CONFIGS_PER_PASS = 2
DJ_STEP = 1e-3
BAR_STEP = 2e-3

# ----------------------------------------------------------------------
# variations: first-variation formulas and frame evolution

VAR_ENTRIES = ("r3_contact", "s3_hopf", "lorentz_product")
VAR_SEEDS_POOL = 3
VAR_POINT_POOL = 4
VAR_ITEMS_PER_CLASS = 4
EVOLVE_STEPS = 64
EVOLVE_T_END = 0.1

WORKLOADS = ("pointwise", "quadrature", "variations")

# The percentile that item_tail_ms reports.  It is fixed by the composition
# of each job, not by the sample count, so a faster or slower library that
# fits more or fewer passes into a run still reports the same percentile.
# Every pass holds each block in the same share, so these stay inside one
# block at any number of passes:
#   pointwise   s7 is the top 4 of 14 items (71-100%);
#   quadrature  J_mix is the third block, 4 of 14 items (57-86%), below the
#               2 bar relations;
#   variations  lorentz_product is the top 8 of 24 items (67-100%).
TAIL_PERCENTILE = {"pointwise": 80.0, "quadrature": 80.0, "variations": 90.0}


class Item:
    __slots__ = ("key", "entry", "point", "run")

    def __init__(self, key, entry, point, run):
        self.key = key        # reference key, stable across seeds
        self.entry = entry    # gallery entry and chart point at which the
        self.point = point    # traced run reads the geometry stages
        self.run = run


# ----------------------------------------------------------------------
# pools

def point_pool(struct, size):
    return struct.interior_points(size, POOL_SEED)


def quad_box(struct):
    return tuple((0.5 * (lo + hi) - QUAD_BOX_SHARE * 0.5 * (hi - lo),
                  0.5 * (lo + hi) + QUAD_BOX_SHARE * 0.5 * (hi - lo))
                 for lo, hi in struct.domain)


def quad_pool(struct):
    """Seeded (bump box, variation seed, t) configurations.

    Bump faces sit on quadrature cell faces, so every configuration has
    exactly QUAD_BUMP_CELLS**dim supported nodes and the same work."""
    rng = random.Random(f"{POOL_SEED}:{struct.name}:quad")
    box = quad_box(struct)
    out = []
    for _ in range(QUAD_POOL):
        bump = []
        for lo, hi in box:
            w = (hi - lo) / QUAD_GRID
            a = rng.randint(1, QUAD_GRID - 1 - QUAD_BUMP_CELLS)
            bump.append((lo + a * w, lo + (a + QUAD_BUMP_CELLS) * w))
        out.append({"bump": tuple(bump), "vseed": rng.randrange(10 ** 6),
                    "t": rng.uniform(-0.05, 0.05)})
    return box, out


def var_pool(struct):
    pts = point_pool(struct, VAR_POINT_POOL)
    return [(k, j) for k in range(VAR_SEEDS_POOL) for j in range(len(pts))], pts


def var_seed(entry, klass, k):
    return (POOL_SEED + 7919 * k + (0 if klass == "perp" else 104729)
            + sum(map(ord, entry)))


# ----------------------------------------------------------------------
# item runners

def _num(x):
    """Plain float / nested list for numpy scalars and arrays."""
    if hasattr(x, "tolist"):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_num(v) for v in x]
    if isinstance(x, bool) or isinstance(x, str) or x is None:
        return x
    return float(x)


def pointwise_item(lib, entry, pt, rng_seed):
    s = entry.structure
    values, failed = {}, []
    res = lib.geometry.identity_suite(s, pt, rng_seed=rng_seed)
    for k, v in res.items():
        values[f"identity/{k}"] = (float(v), 1.0)
    if res["max"] > VERDICT_TOL:
        failed.append(f"identity_suite max {res['max']:.2e}")

    # the evaluators that `verify el` runs for these block sizes
    for eq, evaluate in lib.cli._el_equations(s):
        norm = evaluate(pt).norm
        values[f"el/{eq}"] = (float(norm), 1.0)
        if eq in entry.criticality:
            critical = entry.criticality[eq]
            ok = (norm <= VERDICT_TOL if critical
                  else norm >= NONCRITICAL_FACTOR * VERDICT_TOL)
            if not ok:
                failed.append(f"{eq} residual {norm:.2e} (critical={critical})")

    geom = lib.geometry.PointGeometry(s, pt)
    for exp in entry.expected:
        value = _num(lib.gallery.evaluate_quantity(entry, geom, exp.quantity))
        values[f"gallery/{exp.quantity}"] = (value, 1.0)
        dev = _max_abs_diff(value, _num(exp.value))
        if not dev <= exp.tol:
            failed.append(f"{exp.quantity} off by {dev:.2e} (tol {exp.tol})")
    for k, v in geom.summary().items():
        values[f"summary/{k}"] = (_num(v), 1.0)
    return values, failed


def cli_item(lib, suite):
    """One `mixedcurv verify <suite>` call; the report bytes are the output."""
    import contextlib
    import io
    import json

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(["verify", suite, "--gallery", CLI_ENTRY, *CLI_ARGS])
    text = buf.getvalue()
    failed = [] if code == 0 else [f"verify {suite} exited {code}"]
    values = {"report": (json.loads(text) if code == 0 else None, 1.0)}
    return values, failed, text


def quad_volume_item(lib, struct, box, v, t):
    q = lib.euler_lagrange.QuadratureSpec(box=box, grid=QUAD_GRID)
    vol = lib.euler_lagrange.volume(struct, q, metric_fn=v.metric_fn(t))
    return {"volume": (vol, 1.0)}, []


def quad_jmix_item(lib, struct, box, v, t):
    q = lib.euler_lagrange.QuadratureSpec(box=box, grid=QUAD_GRID)
    j = lib.variations.action_value(struct, q, "J_mix", metric_fn=v.metric_fn(t))
    return {"J_mix": (j, 1.0)}, []


def quad_dj_item(lib, struct, box, v, t):
    """``t`` is unused: the derivative is taken at t = 0."""
    q = lib.euler_lagrange.QuadratureSpec(box=box, grid=QUAD_GRID)
    dj = lib.variations.action_derivative(struct, v, q, "J_mix", t_step=DJ_STEP)
    return {"dJ": (dj, 0.5 / DJ_STEP)}, []


BAR_FD_KEYS = ("dJ_bar", "dJ", "relation_residual", "dphi_fd", "dphi_residual")


def quad_bar_item(lib, struct, box, v, t):
    q = lib.euler_lagrange.QuadratureSpec(box=box, grid=QUAD_GRID)
    rep = lib.variations.verify_bar_relation(struct, v, q, t_step=BAR_STEP,
                                             sstar_grid=QUAD_SSTAR_GRID)
    values = {k: (float(x), 0.5 / BAR_STEP if k in BAR_FD_KEYS else 1.0)
              for k, x in rep.items()}
    failed = []
    scale = max(abs(rep["dJ"]), abs(rep["dJ_bar"]), 1.0)
    if not rep["relation_residual"] <= 1e-4 * scale:
        failed.append(f"bar relation residual {rep['relation_residual']:.2e}")
    if not rep["volume_drift"] <= 1e-6:
        failed.append(f"bar volume drift {rep['volume_drift']:.2e}")
    return values, failed


def variation_item(lib, struct, v, pt):
    va = lib.variations
    formulas = va.PERP_FORMULAS if v.klass == "perp" else va.TAN_FORMULAS
    reps = va.verify_first_variation(struct, v, pt, formulas=formulas, tol=1e-5)
    fd_amp = 0.5 / min(va.FD_STEPS)
    values, failed = {}, []
    for f, r in reps.items():
        values[f"{f}/lhs_fd"] = (_num(r.lhs_fd), fd_amp)
        values[f"{f}/rhs"] = (float(r.rhs), 1.0)
        values[f"{f}/discrepancies"] = (_num(r.discrepancies), fd_amp)
        if not r.verdict:
            failed.append(f"{f} discrepancy {min(r.discrepancies):.2e}")
    _, drift = va.evolve_frame(struct, v, pt, t_end=EVOLVE_T_END, steps=EVOLVE_STEPS)
    values["evolve/drift"] = (float(drift), 1.0)
    if not drift <= 1e-8:
        failed.append(f"frame evolution drift {drift:.2e}")
    return values, failed


# ----------------------------------------------------------------------
# jobs

QUAD_CALLS = (("volume", quad_volume_item), ("J_mix", quad_jmix_item),
              ("dJ", quad_dj_item), ("bar", quad_bar_item))
ENTRIES = {"quadrature": QUAD_ENTRIES, "variations": VAR_ENTRIES}


def quad_variation(lib, name, cfg):
    s = lib.entries[name].structure
    return lib.variations.random_variation(s, "perp", seed=cfg["vseed"],
                                           box=cfg["bump"])


def pool(lib, workload):
    """Every pool member of a workload, as {group: [Item, ...]}.

    A group is what a job draws from: a gallery entry (pointwise), a
    configuration with its four calls (quadrature), or an (entry, class)
    pair (variations).  ``lib.entries`` must hold the workload's entries."""
    groups = {}
    if workload == "pointwise":
        for name in lib.gallery.list_entries():
            pts = point_pool(lib.entries[name].structure, POINT_POOL)
            groups[name] = [
                Item(f"pointwise/{name}/{i}", name, pt,
                     lambda lib, n=name, pt=pt: pointwise_item(
                         lib, lib.entries[n], pt, POOL_SEED))
                for i, pt in enumerate(pts)]
    elif workload == "quadrature":
        for name in QUAD_ENTRIES:
            box, cfgs = quad_pool(lib.entries[name].structure)
            for i, cfg in enumerate(cfgs):
                key = f"quadrature/{name}/{i}"
                center = tuple(0.5 * (lo + hi) for lo, hi in cfg["bump"])
                groups[key] = [
                    Item(f"{key}/{kind}", name, center,
                         lambda lib, f=runner, n=name, c=cfg, b=box: f(
                             lib, lib.entries[n].structure, b,
                             quad_variation(lib, n, c), c["t"]))
                    for kind, runner in QUAD_CALLS]
    elif workload == "variations":
        for name in VAR_ENTRIES:
            combos, pts = var_pool(lib.entries[name].structure)
            for klass in ("perp", "tan"):
                groups[(name, klass)] = [
                    Item(f"variations/{name}/{klass}/{k}/{j}", name, pts[j],
                         lambda lib, n=name, kl=klass, k=k, pt=pts[j]: variation_item(
                             lib, lib.entries[n].structure,
                             lib.variations.random_variation(
                                 lib.entries[n].structure, kl, seed=var_seed(n, kl, k)),
                             pt))
                    for k, j in combos]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return groups


def build_job(lib, workload, seed):
    """Load the workload's gallery entries into ``lib.entries`` and return
    its fixed job: the items the seed draws from the pool, in issue order."""
    names = ENTRIES.get(workload, lib.gallery.list_entries())
    lib.entries = {n: lib.gallery.load_entry(n) for n in names}
    groups = pool(lib, workload)
    rng = random.Random(f"{workload}:{seed}")
    items = []
    if workload == "pointwise":
        for name, members in groups.items():
            items += rng.sample(members, POINTWISE_MIX[name])
    elif workload == "quadrature":
        for name in QUAD_ENTRIES:
            keys = [k for k in groups if k.startswith(f"quadrature/{name}/")]
            chosen = rng.sample(keys, QUAD_CONFIGS_PER_PASS)
            for key in chosen:
                items += groups[key][:3]          # volume, J_mix, dJ
            items.append(groups[chosen[0]][3])    # one bar relation per entry
    else:
        for members in groups.values():
            items += rng.sample(members, VAR_ITEMS_PER_CLASS)
    return items


def all_reference_items(lib):
    """Every pool member of every workload, for recording references."""
    lib.entries = {n: lib.gallery.load_entry(n) for n in lib.gallery.list_entries()}
    return [item for workload in WORKLOADS
            for members in pool(lib, workload).values() for item in members]


# ----------------------------------------------------------------------
# output check

def _max_abs_diff(a, b):
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b):
            return math.inf
        return max((_max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b)


def mismatches(values, ref):
    """Names of values that moved from their reference by more than the rule."""
    bad = []
    if set(values) != set(ref):
        bad.append(f"keys differ: {sorted(set(values) ^ set(ref))[:4]}")
    for name in sorted(set(values) & set(ref)):
        got, amp = values[name]
        if not _close(got, ref[name], amp):
            bad.append(f"{name}: got {got!r}, reference {ref[name]!r}")
    return bad


def _close(got, ref, amp):
    if isinstance(ref, dict):
        return (isinstance(got, dict) and set(got) == set(ref)
                and all(_close(got[k], ref[k], amp) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_close(g, r, amp) for g, r in zip(got, ref)))
    if isinstance(ref, (bool, str)) or ref is None:
        return got == ref
    if isinstance(got, (bool, str)) or got is None:
        return False
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= TOL * amp * max(1.0, abs(ref))


def plain(values):
    """Reference form of item values: the names and values, without amps."""
    return {k: v for k, (v, _) in values.items()}
