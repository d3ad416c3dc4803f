"""Record the reference outputs of every pool member into refs.json.

    python3 perfbench/record_refs.py

Run once, from the root of a checkout of the commit whose outputs are the
reference; the committed refs.json was recorded this way.  A later change must
not re-record it to make the benchmark pass: a moved output is a finding.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time

import run
import workloads as W


def main():
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    refs, failures = {}, []
    t0 = time.perf_counter()
    for item in W.all_reference_items(lib):
        values, failed = item.run(lib)
        refs[item.key] = W.plain(values)
        failures += [f"{item.key}: {msg}" for msg in failed]
    for suite in W.CLI_SUITES:
        values, failed, _ = W.cli_item(lib, suite)
        refs[f"cli/{suite}"] = W.plain(values)
        failures += [f"cli/{suite}: {msg}" for msg in failed]
    if failures:
        sys.stderr.write("verdicts failed; no reference written:\n  "
                         + "\n  ".join(failures) + "\n")
        return 1
    run.REFS.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n")
    print(f"{len(refs)} reference outputs in {time.perf_counter() - t0:.0f} s "
          f"-> {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
