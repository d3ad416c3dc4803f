"""mixedcurv benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the job is repeated in whole passes until ``--seconds``
have elapsed and the end-to-end metrics are printed, their times scaled to
the reference host speed (see ``Clock``).  With ``--trace 1`` the
job runs a fixed number of passes (plain, with spans, with counters) and the
per-layer metrics are printed.  The last line of standard output is the
result object; the line before it records the environment and run details.
See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin every BLAS / OpenMP pool to one thread before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# Median time of the calibration kernel on the host that defined the benchmark.
CAL_REF_S = 4.0e-4
MODULES = ("jets", "exprlang", "structure", "geometry", "euler_lagrange",
           "variations", "gallery", "cli")


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


# ----------------------------------------------------------------------
# environment

def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _tree_hash(SRC / "mixedcurv"),
        "loadavg": list(os.getloadavg()),
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _tree_hash(pkg):
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# set-up

def import_library():
    """Fresh import of every mixedcurv module (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "mixedcurv" or n.startswith("mixedcurv.")]:
        del sys.modules[name]
    lib = SimpleNamespace()
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"mixedcurv.{name}"))
    return lib


def setup(workload, seed, refs, log, clock):
    """Import, gallery load, job construction and a first-item warm-up,
    repeated; returns the last (lib, items) and the set-up times."""
    def once():
        lib = import_library()
        items = W.build_job(lib, workload, seed)
        run_item(lib, items[0], refs, log, Clock(False))
        return lib, items

    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (lib, items), raw, ref = clock.measure(once)
        times.append((raw, ref))
    return lib, items, times


# ----------------------------------------------------------------------
# timing

def _kernel():
    acc, chain = 0.0, None
    for i in range(3000):
        acc = acc * 0.999999 + i
        chain = (acc, chain) if i % 8 else (acc,)
    return acc


def calibrate():
    """Median of seven runs of a fixed pure-Python kernel, in seconds.

    A median follows the host's current speed; a minimum would not, since
    even a slow host has short idle gaps."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Wall time of a call, and the same time at the reference host speed.

    The host's speed drifts by about 25% for minutes at a time with other
    tenants' load, longer than a run and far longer than one item.  With
    ``calibrated`` the kernel is timed just before and just after the call,
    and the call's time is scaled by ``CAL_REF_S`` over their mean: a change
    of host speed cancels, a change of the library's speed does not."""

    def __init__(self, calibrated):
        self.calibrated = calibrated
        self.cal_s = []

    def measure(self, fn):
        before = calibrate() if self.calibrated else None
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        if before is None:
            return out, raw, raw
        after = calibrate()
        self.cal_s += [before, after]
        return out, raw, raw * CAL_REF_S * 2.0 / (before + after)


# ----------------------------------------------------------------------
# items and passes

def run_item(lib, item, refs, log, clock):
    """Run one item and check it; returns (seconds, reference seconds, ok)."""
    t0 = time.perf_counter()
    try:
        (values, failed), raw, ref = clock.measure(lambda: item.run(lib))
    except Exception:  # an engine error is a failed item, not a crashed run
        log.append(f"{item.key}: {traceback.format_exc(limit=3).strip()}")
        raw = time.perf_counter() - t0
        return raw, raw, False
    if item.key not in refs:
        failed = failed + [f"no reference output for {item.key}"]
    else:
        failed = failed + W.mismatches(values, refs[item.key])
    log.extend(f"{item.key}: {msg}" for msg in failed)
    return raw, ref, not failed


def run_cli(lib, refs, log, reports, tally):
    """The closing `verify` calls: exit code 0, the reference report, and the
    same bytes as every earlier call of the run."""
    for suite in W.CLI_SUITES:
        key = f"cli/{suite}"
        try:
            values, failed, text = W.cli_item(lib, suite)
        except Exception:
            log.append(f"{key}: {traceback.format_exc(limit=3).strip()}")
            tally.add(False)
            continue
        failed = failed + W.mismatches(values, refs.get(key, {}))
        if reports.setdefault(suite, text) != text:
            failed.append("report bytes differ from the first call of this run")
        log.extend(f"{key}: {msg}" for msg in failed)
        tally.add(not failed)


class Tally:
    def __init__(self):
        self.item_s = []       # (raw, reference) per item
        self.pass_s = []       # (raw, reference) per pass
        self.attempted = 0
        self.failed = 0

    def add(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_pass(lib, workload, items, refs, log, tally, reports, clock, spans=None):
    """One pass of the job.  Its reference time is the sum of its items'
    and, on pointwise, of the CLI calls'."""
    gc.collect()
    t0 = time.perf_counter()
    ref = 0.0
    for idx, item in enumerate(items):
        if spans is not None:
            spans.item = idx
        raw_s, ref_s, ok = run_item(lib, item, refs, log, clock)
        tally.item_s.append((raw_s, ref_s))
        tally.add(ok)
        ref += ref_s
    if workload == "pointwise":
        if spans is not None:
            spans.item = "cli"
        _, _, ref_s = clock.measure(lambda: run_cli(lib, refs, log, reports, tally))
        ref += ref_s
    wall = time.perf_counter() - t0
    tally.pass_s.append((wall, ref))
    return wall


# ----------------------------------------------------------------------
# metrics

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, tally, setup_times, clock):
    """End-to-end metrics at the reference host speed; the raw wall-clock
    values and the calibration go to the context line."""
    import numpy as np

    def times(pairs, which):
        return [pair[which] for pair in pairs]

    p = W.TAIL_PERCENTILE[workload]
    out = {}
    for which, label in ((0, "raw"), (1, "metrics")):  # `beyond` counts the metrics
        items = times(tally.item_s, which)
        tail_s = float(np.percentile(items, p))
        beyond = sum(1 for t in items if t > tail_s)
        out[label] = {
            "setup_s": (statistics.median(times(setup_times, which)), "s"),
            "wall_s": (statistics.median(times(tally.pass_s, which)), "s"),
            "items_per_s": (len(items) / sum(items), "1/s"),
            "item_p50_ms": (1e3 * statistics.median(items), "ms"),
            "item_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    details = {"tail_percentile": p, "samples": len(tally.item_s),
               "samples_beyond_tail": beyond,
               "passes": len(tally.pass_s),
               "calibration_median_s": statistics.median(clock.cal_s),
               "calibration_ref_s": CAL_REF_S,
               "raw": {k: v for k, (v, _) in out["raw"].items()}}
    return out["metrics"], details


def gc_collections():
    return [g["collections"] for g in gc.get_stats()]


def stage_probe(lib, items):
    """Geometry stages read in dependency order on fresh bundles, at each
    distinct (entry, point) of the job."""
    acc = {k: [] for k in ("metric", "inverse", "christoffel", "frame", "ff", "curv")}
    clock = time.perf_counter
    for name, pt in dict.fromkeys((it.entry, it.point) for it in items):
        s = lib.entries[name].structure
        seeds = lib.jets.seed(pt, 2)
        t0 = clock()
        s.metric_at(seeds)
        s.dtilde_at(seeds)
        acc["metric"].append(clock() - t0)
        g = lib.geometry.PointGeometry(s, pt)
        g.gJ
        for key, read in (("inverse", lambda: g.ginvJ),
                          ("christoffel", lambda: g.GammaJ),
                          ("frame", lambda: g.frameJ),
                          ("ff", lambda: g.hfr),
                          ("curv", lambda: (g.R4, g.smix))):
            t0 = clock()
            read()
            acc[key].append(clock() - t0)
    return {k: 1e3 * statistics.fmean(v) for k, v in acc.items()}


def layer_probe(lib):
    """A small fixed call of every layer entry point on r3_contact.

    Its spans stand in for a layer that the traced workload never calls, so
    every per-layer metric is a measurement on every workload."""
    import contextlib
    import io
    entry = lib.gallery.load_entry("r3_contact")
    s = entry.structure
    va, el = lib.variations, lib.euler_lagrange
    pt = (0.2, -0.3, 0.1)
    lib.geometry.identity_suite(s, pt)
    el.el_general(s, pt, "E-main-0i")
    geom = lib.geometry.PointGeometry(s, pt)
    for exp in entry.expected:
        lib.gallery.evaluate_quantity(entry, geom, exp.quantity)
    with contextlib.redirect_stdout(io.StringIO()):
        lib.cli.main(["verify", "identities", "--gallery", "r3_contact",
                      "--points", "(0.2,-0.3,0.1)"])
    v = va.random_variation(s, "perp", seed=3)
    va.verify_first_variation(s, v, pt)
    va.evolve_frame(s, v, pt, t_end=W.EVOLVE_T_END, steps=W.EVOLVE_STEPS)
    q = el.QuadratureSpec(box=((-0.5, 0.5),) * 3, grid=4)
    vb = va.random_variation(s, "perp", seed=3, box=((-0.25, 0.25),) * 3)
    t0 = time.perf_counter()
    va.action_value(s, q, "J_mix")
    va.action_derivative(s, vb, q, "J_mix", t_step=W.DJ_STEP)
    va.verify_bar_relation(s, vb, q, t_step=W.BAR_STEP, sstar_grid=2)
    return time.perf_counter() - t0


SPAN_METRICS = {
    # metric: (span labels, unit scale from ms)
    "geometry.identity_suite_ms": (("geometry.identity_suite",), 1.0),
    "geometry.density_us": (("geometry.smix_density_fast",), 1e3),
    "euler_lagrange.el_residuals_ms": (("euler_lagrange.el_general",
                                        "euler_lagrange.el_flow",
                                        "euler_lagrange.el_tildeT_action",
                                        "euler_lagrange.el_codim1"), 1.0),
    "variations.action_derivative_ms": (("variations.action_derivative",), 1.0),
    "variations.bar_relation_ms": (("variations.verify_bar_relation",), 1.0),
    "variations.first_variation_ms": (("variations.verify_first_variation",), 1.0),
    "variations.evolve_frame_ms": (("variations.evolve_frame",), 1.0),
    "gallery.evaluate_quantity_ms": (("gallery.evaluate_quantity",), 1.0),
    "cli.verify_ms": (("cli.main",), 1.0),
    "structure.load_ms": (("structure.load_structure",), 1.0),
}


def _span_mean(spans, labels):
    total, calls = 0.0, 0
    for label in labels:
        n, mean = spans.per_call_ms(label)
        total += n * mean
        calls += n
    return calls, (total / calls if calls else 0.0)


def traced(lib, workload, seed, items, refs, log, tally, reports):
    """Plain pass, spans pass, counters pass and probes; per-layer metrics."""
    from tracing import Counters, Spans

    clock = Clock(False)
    cpu0, gc0 = time.process_time(), gc_collections()
    plain_wall = run_pass(lib, workload, items, refs, log, tally, reports, clock)
    cpu_s = time.process_time() - cpu0
    gcs = [b - a for a, b in zip(gc0, gc_collections())]
    item_s = sum(raw for raw, _ in tally.item_s)

    with Spans(lib) as spans:
        for name in list(lib.entries):
            lib.gallery.load_entry(name)
        spans_wall = run_pass(lib, workload, items, refs, log, tally, reports,
                              clock, spans)
    with Counters(lib) as counts:
        run_pass(lib, workload, items, refs, log, tally, reports, clock)
    stages = stage_probe(lib, items)

    with Counters(lib) as probe_counts:
        probe_quad_s = layer_probe(lib)
    with Spans(lib) as probe_spans:
        layer_probe(lib)

    metrics = {
        "exprlang.metric_eval_ms": (stages["metric"], "ms"),
        "jets.scalar_ops": (counts.jet_ops / len(items), "count"),
        "structure.frame_ms": (stages["frame"], "ms"),
        "geometry.inverse_ms": (stages["inverse"], "ms"),
        "geometry.christoffel_ms": (stages["christoffel"], "ms"),
        "geometry.fundamental_forms_ms": (stages["ff"], "ms"),
        "geometry.curvature_ms": (stages["curv"], "ms"),
        "euler_lagrange.nodes": (counts.nodes, "count"),
    }
    fallback = []
    for name, (labels, scale) in SPAN_METRICS.items():
        calls, mean = _span_mean(spans, labels)
        if not calls:
            calls, mean = _span_mean(probe_spans, labels)
            fallback.append(name)
        metrics[name] = (scale * mean, "us" if name.endswith("_us") else "ms")
    if counts.nodes:
        node_us = 1e6 * item_s / counts.nodes
        skip = counts.skipped / counts.grid_nodes
    else:
        node_us = 1e6 * probe_quad_s / probe_counts.nodes
        skip = probe_counts.skipped / probe_counts.grid_nodes
        fallback += ["euler_lagrange.node_us", "variations.support_skip_ratio"]
    metrics["euler_lagrange.node_us"] = (node_us, "us")
    metrics["variations.support_skip_ratio"] = (skip, "ratio")
    metrics["process.cpu_s"] = (cpu_s, "s")
    for gen, n in enumerate(gcs):
        metrics[f"process.gc_gen{gen}"] = (n, "count")
    metrics["trace.overhead_ratio"] = (spans_wall / plain_wall, "ratio")

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload}-{seed}.json"
    dump.write_text(json.dumps({
        "summary": spans.summary(),
        "probe_summary": probe_spans.summary(),
        "spans": spans.spans,
    }))
    details = {"fallback_probe": fallback, "spans_file": str(dump.relative_to(ROOT)),
               "grid_nodes": counts.grid_nodes, "skipped_nodes": counts.skipped,
               "jet_ops_total": counts.jet_ops}
    return metrics, details


# ----------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mixedcurv" / "__init__.py").is_file():
        fail(f"no library source under {SRC}; run from the root of a checkout")
    if not REFS.is_file():
        fail(f"missing reference outputs {REFS}")
    sys.path.insert(0, str(SRC))
    global W
    import workloads as W
    if args.workload not in W.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(W.WORKLOADS)}")
    seed = W.DEFAULT_SEED if args.seed is None else args.seed
    refs = json.loads(REFS.read_text())

    import numpy  # noqa: F401  harness dependency, kept out of setup_s
    env_start = environment()
    log = []
    clock = Clock(calibrated=not args.trace)
    lib, items, setup_times = setup(args.workload, seed, refs, log, clock)

    tally, reports = Tally(), {}
    if args.trace:
        metrics, details = traced(lib, args.workload, seed, items, refs, log,
                                  tally, reports)
    else:
        t0 = time.perf_counter()
        while not tally.pass_s or time.perf_counter() - t0 < args.seconds:
            run_pass(lib, args.workload, items, refs, log, tally, reports, clock)
        metrics, details = end_to_end(args.workload, tally, setup_times, clock)
    if args.workload == "pointwise":
        # every report must repeat byte for byte within the run
        run_cli(lib, refs, log, reports, tally)

    for line in log[:10]:
        sys.stderr.write(f"perfbench: failed {line}\n")
    context = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "items_per_pass": len(items),
        "failed_ratio": tally.failed / tally.attempted,
        "setup_repeats": SETUP_REPEATS, **details,
        "env_start": env_start, "env_end": environment(),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0 and not log,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
