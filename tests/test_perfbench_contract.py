"""The library contract that the benchmark under ``perfbench/`` relies on.

The benchmark imports ``perfbench/workloads.py`` and calls the library
through it: ``geometry.identity_suite(struct, point, rng_seed=...)``,
``cli._el_equations(struct)``, ``gallery.evaluate_quantity`` on a bundle,
``PointGeometry.summary`` and ``cli.main``; its traced probes also call
``euler_lagrange.el_general(struct, point, which)`` and read
``PointGeometry.hfr``.  Here one pool member of each gallery entry's
pointwise group and the three CLI items run through the unchanged harness
code and must match ``perfbench/refs.json``.  The traced mode
(``run.py --trace 1``) wraps the functions that ``perfbench/tracing.py``
names; every name must resolve, and leaving the tracer must put every
original binding back.
"""

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("jets", "exprlang", "structure", "geometry", "euler_lagrange",
           "variations", "gallery", "cli")


@pytest.fixture(scope="module")
def harness():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    W = importlib.import_module("workloads")
    lib = SimpleNamespace(**{m: importlib.import_module(f"mixedcurv.{m}")
                             for m in MODULES})
    lib.entries = {n: lib.gallery.load_entry(n) for n in lib.gallery.list_entries()}
    refs = json.loads((PERFBENCH / "refs.json").read_text())
    yield W, lib, refs
    mp.undo()


def _bindings(lib):
    """Every attribute of the package's modules and of ``jets.Jet``, by
    (owner, name), as the objects bound there."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "mixedcurv" or name.startswith("mixedcurv."))]
    out = {(m.__name__, k): v for m in owners for k, v in vars(m).items()}
    out.update({("Jet", k): v for k, v in vars(lib.jets.Jet).items()})
    return out


def _restored(lib, before):
    after = _bindings(lib)
    return after.keys() == before.keys() and all(v is before[k] for k, v in after.items())


def test_traced_mode_wraps_its_targets_and_restores_every_binding(harness):
    _, lib, _ = harness
    tracing = importlib.import_module("tracing")
    targets = {(mod, name): getattr(getattr(lib, mod), name, None)
               for mod, name in tracing.SPAN_TARGETS}
    assert [k for k, f in targets.items() if not callable(f)] == []
    before = _bindings(lib)
    with tracing.Spans(lib):
        assert all(getattr(getattr(lib, mod), name) is not f
                   for (mod, name), f in targets.items())
    assert _restored(lib, before)
    with tracing.Counters(lib):
        assert lib.variations._inside is not before[("mixedcurv.variations", "_inside")]
        assert all(getattr(lib.jets.Jet, op) is not before[("Jet", op)]
                   for op in tracing.JET_OPS)
    assert _restored(lib, before)


def test_pointwise_pool_matches_references(harness):
    W, lib, refs = harness
    groups = W.pool(lib, "pointwise")
    assert set(groups) == set(lib.gallery.list_entries())
    for members in groups.values():
        item = members[0]
        values, failed = item.run(lib)
        assert failed == []
        assert W.mismatches(values, refs[item.key]) == [], item.key


def test_cli_items_match_references(harness):
    W, lib, refs = harness
    for suite in W.CLI_SUITES:
        values, failed, _ = W.cli_item(lib, suite)
        assert failed == []
        assert W.mismatches(values, refs[f"cli/{suite}"]) == [], suite


def test_probe_entry_points(harness):
    _, lib, _ = harness
    s = lib.entries["r3_contact"].structure
    pt = (0.2, -0.3, 0.1)
    rep = lib.euler_lagrange.el_general(s, pt, "E-main-0i")
    geom = lib.geometry.PointGeometry(s, pt)
    assert rep.norm == lib.euler_lagrange.EQUATIONS["E-main-0i"].run(geom).norm
    assert np.array_equal(geom.hfr, geom.tan.h)
