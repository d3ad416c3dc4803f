"""Check that the deterministic counters repeat exactly between traced runs.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Runs ``run.py --trace 1`` twice per workload, each in its own process, and
compares the counters and item counts of the two results.  Exits 0 when they
all repeat and both runs report correct outputs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
DETERMINISTIC = ("jets.scalar_ops", "euler_lagrange.nodes",
                 "variations.support_skip_ratio")


def traced_result(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or W.WORKLOADS:
        (a, ca), (b, cb) = (traced_result(workload, args.seed) for _ in range(2))
        pairs = {name: (a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for name in DETERMINISTIC}
        pairs["attempted"] = (a["attempted"], b["attempted"])
        pairs["items_per_pass"] = (ca["items_per_pass"], cb["items_per_pass"])
        pairs["grid_nodes"] = (ca["grid_nodes"], cb["grid_nodes"])
        pairs["jet_ops_total"] = (ca["jet_ops_total"], cb["jet_ops_total"])
        for name, (x, y) in pairs.items():
            same = x == y
            ok = ok and same
            print(f"{workload:11s} {name:32s} {x!r:>22} {y!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
        for r in (a, b):
            if not r["correct"]:
                ok = False
                print(f"{workload:11s} outputs not correct")
    print("counters repeat exactly" if ok else "counters differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
