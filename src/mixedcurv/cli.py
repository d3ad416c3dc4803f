"""Command-line front end.

Subcommands
-----------
``inspect``   geometry-bundle scalars and small matrices at chosen points
``verify``    run a verification suite: identities | el | variations | gallery
``gallery``   list built-in entries and their expected tables

Structures come either from ``--spec PATH`` (the structure file format, see
the README) or ``--gallery NAME``.  Points are given explicitly with
``--points "(x0,x1,..);(..)"`` or sampled reproducibly with ``--random N
--seed S``.  ``inspect`` and the pointwise suites read their points as one
bundle per chunk of points; a chunk that raises or gives a non-finite value
is read again point by point, so every error is reported at its point as a
bundle at that point alone reports it.  Exit codes: 0 all verdicts pass, 1
a verdict failed, 2 an engine or configuration error.  Reports embed the structure content hash and
the seed, so identical configurations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import euler_lagrange as el
from . import gallery as gal
from . import variations as va
from .errors import MixedCurvError, SingularEvaluationError
from .geometry import PointGeometry, identity_suite_at, node_chunks
from .structure import load_structure, parse_intervals

DEFAULT_GRID = 8
NONCRITICAL_FACTOR = 10.0


def _load(args):
    if args.spec and args.gallery:
        raise MixedCurvError("give either --spec or --gallery, not both")
    if args.spec:
        with open(args.spec) as fh:
            text = fh.read()
        return load_structure(text), None
    if args.gallery:
        entry = gal.load_entry(args.gallery)
        return entry.structure, entry
    raise MixedCurvError("one of --spec or --gallery is required")


def _points(args, struct):
    if args.points:
        pts = []
        for chunk in args.points.split(";"):
            chunk = chunk.strip().strip("()")
            if not chunk:
                continue
            try:
                pt = tuple(float(x) for x in chunk.split(","))
            except ValueError:
                raise MixedCurvError(f"bad point {chunk!r} in --points") from None
            struct.require_inside(pt)
            pts.append(pt)
        if not pts:
            raise MixedCurvError("no points parsed from --points")
        return pts
    if args.random < 1:
        raise MixedCurvError(f"--random needs at least 1 point, got {args.random}")
    return struct.interior_points(args.random, args.seed)


def _quadrature(args, struct):
    """The variations suite's quadrature from --box and --grid, or None
    without --box; checked before any point is evaluated."""
    if args.suite != "variations" and (args.box is not None or args.grid is not None):
        raise MixedCurvError("--box and --grid apply to the variations suite only")
    if args.box is None:
        if args.grid is not None:
            raise MixedCurvError("--grid needs --box")
        return None
    box = parse_intervals(args.box, "box", MixedCurvError)
    struct.require_box(box)
    return el.QuadratureSpec(box=box, grid=DEFAULT_GRID if args.grid is None else args.grid)


def _base_report(args, struct):
    return {
        "structure": struct.name or (args.spec or args.gallery),
        "spec_sha256": struct.content_hash,
        "seed": args.seed,
    }


# ----------------------------------------------------------------------

def _each_point(struct, pts, read):
    """The dict ``read(geom)`` at every point, point axis first: one bundle per
    chunk of points (``node_chunks``), and the bundle at a point alone for a
    chunk of one point and at each point of a chunk that fails."""
    def chunk(c):
        one = len(c) == 1
        vals = read(PointGeometry(struct, c[0] if one else c))
        return {k: np.asarray(v, float)[None] if one else np.asarray(v, float)
                for k, v in vals.items()}

    return node_chunks(pts, struct.dim, chunk)


def cmd_inspect(args):
    struct, _ = _load(args)
    pts = _points(args, struct)
    report = _base_report(args, struct)
    report["command"] = "inspect"

    def summary(geom):
        out = geom.summary()
        bad = [k for k, v in out.items() if _non_finite(v)]
        if bad:
            raise SingularEvaluationError(f"non-finite {', '.join(bad)}", point=geom.point)
        return out

    res = _each_point(struct, pts, summary)
    report["points"] = [{k: v[i].tolist() for k, v in res.items()} for i in range(len(pts))]
    return report, 0


def cmd_verify(args):
    struct, entry = _load(args)
    q = _quadrature(args, struct)
    pts = _points(args, struct)
    report = _base_report(args, struct)
    report["command"] = f"verify {args.suite}"
    report["tolerance"] = args.tol
    checks = []

    if args.suite == "identities":
        res = _each_point(struct, pts, lambda geom: identity_suite_at(geom, args.seed))
        del res["max"]
        for i, pt in enumerate(pts):
            for key, values in res.items():
                value = float(values[i])
                checks.append({"check": key, "point": list(pt),
                               "residual": value, "tolerance": args.tol,
                               "provenance": "derived:independent-paths",
                               "verdict": bool(value <= args.tol)})

    elif args.suite == "el":
        runnable = el.applicable(struct)
        # a gallery entry claims what its flags say; a spec file is assumed
        # critical for every equation that applies to its block sizes
        claims = entry.criticality if entry else dict.fromkeys(runnable, True)
        skipped = [{"check": eq, "reason": _skip_reason(eq, struct)}
                   for eq in claims if eq not in runnable]
        if skipped:
            report["skipped"] = skipped
        eqs = [eq for eq in runnable if eq in claims]
        errors = {}

        def norms(geom):
            """The norm of every equation; at a point, one that raises reads
            nan and its message is kept for its check."""
            out = {}
            for eq in eqs:
                try:
                    out[eq] = el.EQUATIONS[eq].run(geom).norm
                except MixedCurvError as exc:
                    if geom.coords.ndim == 2:
                        raise               # a chunk: its points are read one by one
                    errors[geom.point, eq] = str(exc)
                    out[eq] = math.nan
            return out

        res = _each_point(struct, pts, norms)
        for i, pt in enumerate(pts):
            for eq in eqs:
                critical = claims[eq]
                check = {"check": eq, "point": list(pt), "tolerance": args.tol,
                         "expected": "critical" if critical else "non-critical",
                         "provenance": "gallery-flag" if entry else "assumed-critical"}
                error = errors.get((tuple(pt), eq))
                if error is not None:
                    check.update(residual=None, error=error, verdict=False)
                else:
                    norm = float(res[eq][i])
                    ok = (norm <= args.tol if critical
                          else norm >= NONCRITICAL_FACTOR * args.tol)
                    check.update(residual=norm, verdict=bool(ok))
                checks.append(check)

    elif args.suite == "variations":
        report["fd_steps"] = list(va.FD_STEPS)
        for klass in ("perp", "tan"):
            v = va.random_variation(struct, klass, seed=args.seed)
            for pt in pts:
                reps = va.verify_first_variation(struct, v, pt, tol=args.tol * 10)
                for f, r in reps.items():
                    checks.append({
                        "check": f, "point": list(pt), "class": klass,
                        "residual": min(r.discrepancies),
                        "order": r.order, "tolerance": args.tol * 10,
                        "provenance": "derived:fd-vs-jets",
                        "verdict": bool(r.verdict)})
        if q is not None:
            v = va.random_variation(struct, "perp", seed=args.seed, box=q.box)
            rep = va.verify_bar_relation(struct, v, q,
                                         sstar_grid=max(4, q.grid // 2))
            scale = max(abs(rep["dJ"]), abs(rep["dJ_bar"]), 1.0)
            checks.append({
                "check": "volume-normalized-action-relation", "box": list(q.box),
                "grid": q.grid,
                "residual": rep["relation_residual"],
                "volume_drift": rep["volume_drift"],
                "tolerance": 1e-4 * scale,
                "provenance": "derived:quadrature-vs-fd",
                "verdict": bool(rep["relation_residual"] <= 1e-4 * scale
                                and rep["volume_drift"] <= 1e-6)})

    elif args.suite == "gallery":
        if entry is None:
            raise MixedCurvError("--gallery is required for the gallery suite")
        res = _each_point(struct, pts, lambda geom: {
            k: gal.evaluate_quantity(entry, geom, exp.quantity)
            for k, exp in enumerate(entry.expected)})
        for i, pt in enumerate(pts):
            for k, exp in enumerate(entry.expected):
                got = res[k][i]
                dev = float(np.max(np.abs(got - np.asarray(exp.value, float))))
                checks.append({
                    "check": exp.quantity, "point": list(pt),
                    "value": got.tolist(),
                    "expected": np.asarray(exp.value).tolist(),
                    "residual": dev, "tolerance": exp.tol,
                    "provenance": exp.provenance,
                    "verdict": bool(dev <= exp.tol)})
    else:
        raise MixedCurvError(f"unknown suite {args.suite!r}")

    for check in checks:
        _fail_non_finite(check)
    report["checks"] = checks
    report["passed"] = sum(1 for c in checks if c["verdict"])
    report["failed"] = sum(1 for c in checks if not c["verdict"])
    return report, (0 if report["failed"] == 0 else 1)


def _non_finite(x):
    """Whether a report value is or holds a non-finite float."""
    if isinstance(x, float):
        return not math.isfinite(x)
    return isinstance(x, list) and any(map(_non_finite, x))


def _fail_non_finite(check):
    """A check with a non-finite field fails with an error naming the field,
    its value and the point; the field is recorded as null."""
    bad = [k for k, v in check.items() if _non_finite(v)]
    if bad:
        where = (f"point {tuple(check['point'])}" if "point" in check
                 else f"box {check['box']}")
        what = ", ".join(f"{k} {check[k]}" for k in bad)
        check.update(dict.fromkeys(bad), error=f"non-finite {what} at {where}",
                     verdict=False)


def _el_equations(struct):
    """(name, evaluator of a point) for every registered equation that
    applies to ``struct``, in registry order.  Consecutive calls at the same
    point share one bundle."""
    last = None

    def bundle(pt):
        nonlocal last
        pt = tuple(float(x) for x in pt)
        if last is None or last.point != pt:
            last = PointGeometry(struct, pt)
        return last

    return [(eq, lambda pt, run=el.EQUATIONS[eq].run: run(bundle(pt)))
            for eq in el.applicable(struct)]


def _skip_reason(eq, struct):
    spec = el.EQUATIONS.get(eq)
    if spec is None:
        return "no evaluator in the equation registry"
    return f"needs {spec.needs}; the structure has n = {struct.n}, p = {struct.p}"


def cmd_gallery(args):
    entries = [gal.load_entry(name) for name in gal.list_entries()]
    known = set(el.EQUATIONS).union(*(e.criticality for e in entries))
    for option, eq in (("--filter-critical", args.filter_critical),
                       ("--filter-noncritical", args.filter_noncritical)):
        if eq and eq not in known:
            raise MixedCurvError(f"{option}: unknown equation {eq!r}; known: "
                                 f"{', '.join(sorted(known))}")
    report = {"command": "gallery", "entries": []}
    for entry in entries:
        name = entry.name
        if args.filter_critical and not entry.criticality.get(args.filter_critical):
            continue
        if args.filter_noncritical and entry.criticality.get(
                args.filter_noncritical, True):
            continue
        report["entries"].append({
            "name": name,
            "dim": entry.structure.dim,
            "dtilde_dim": entry.structure.n,
            "spec_sha256": entry.structure.content_hash,
            "criticality": entry.criticality,
            "expected": [{"quantity": e.quantity,
                          "value": np.asarray(e.value).tolist(),
                          "tol": e.tol, "provenance": e.provenance}
                         for e in entry.expected],
            "notes": entry.notes,
        })
    report["count"] = len(report["entries"])
    return report, 0


# ----------------------------------------------------------------------

def _emit(report, args):
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["section", "name", "index", "value"])
        _flatten_csv(writer, "", report)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        sys.stdout.write(text + "\n")


def _flatten_csv(writer, prefix, obj):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten_csv(writer, f"{prefix}.{key}" if prefix else key, obj[key])
    elif isinstance(obj, list):
        flat = _flatten_list(obj)
        if flat is None:
            for i, item in enumerate(obj):
                _flatten_csv(writer, f"{prefix}[{i}]", item)
        else:
            for idx, value in flat:
                writer.writerow([prefix, prefix.rsplit(".", 1)[-1], idx, value])
    else:
        writer.writerow([prefix, prefix.rsplit(".", 1)[-1], "", obj])


def _flatten_list(obj):
    """Row-major flattening for purely numeric (possibly nested) lists."""
    rows = []

    def rec(o, idx):
        if isinstance(o, (int, float)):
            rows.append((",".join(map(str, idx)), o))
            return True
        if isinstance(o, list):
            return all(rec(x, idx + (k,)) for k, x in enumerate(o))
        return False

    return rows if rec(obj, ()) else None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mixedcurv",
        description="extrinsic-geometry invariants and Euler-Lagrange "
                    "residual checks for metrics with a distinguished "
                    "distribution")
    sub = ap.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def common(p):
        p.add_argument("--spec", help="structure spec file")
        p.add_argument("--gallery", help="built-in gallery entry name")
        p.add_argument("--points", help='explicit points "(..);(..)"')
        p.add_argument("--random", type=int, default=5,
                       help="number of random interior points")
        p.add_argument("--seed", type=int, default=20260808)
        output(p)

    p = sub.add_parser("inspect", help="geometry bundle at points")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("identities", "el", "variations", "gallery"))
    common(p)
    p.add_argument("--tol", type=float, default=el.DEFAULT_TOL)
    p.add_argument("--box", help='variations: quadrature box "[a,b] x [c,d] x ..."')
    p.add_argument("--grid", type=int,
                   help=f"variations: quadrature points per axis with --box "
                        f"(default {DEFAULT_GRID})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gallery", help="list gallery entries")
    p.add_argument("--filter-critical", metavar="EQ",
                   help="only entries whose flag for EQ is critical")
    p.add_argument("--filter-noncritical", metavar="EQ",
                   help="only entries whose flag for EQ is non-critical")
    output(p)
    p.set_defaults(func=cmd_gallery)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol >= 0):
            raise MixedCurvError(f"--tol must be finite and >= 0, got {args.tol}")
        # a non-finite result is reported in its check, not as a warning
        with np.errstate(all="ignore"):
            report, code = args.func(args)
    except MixedCurvError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
