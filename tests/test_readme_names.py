"""Every library name that README.md spells out resolves in the package.

A backticked ``module.name`` (a module of ``mixedcurv``, or
``mixedcurv.module``) must be an attribute of that module, and a backticked
``Class.member`` (a CamelCase name) a member or field of a class defined in
the package.  Other dotted names (``geom.perp``, ``np.linalg.solve``, file
names) are not the package's and are skipped.  The benchmark's per-layer
metric names, read from ``BENCHMARK.json``, read like module names but are
not; they are exempt.
"""

import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import mixedcurv

ROOT = Path(__file__).resolve().parents[1]
# a dotted name that fills its backticks or is called there
NAME = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:`|\()")


def _modules():
    return {m.name: importlib.import_module(f"mixedcurv.{m.name}")
            for m in pkgutil.iter_modules(mixedcurv.__path__)}


def _classes(modules):
    return {name: obj for m in modules.values() for name, obj in vars(m).items()
            if inspect.isclass(obj) and obj.__module__.startswith("mixedcurv.")}


def _has(owner, name):
    return hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})


def _resolves(dotted, modules, classes):
    """True or False for a name of the package, None for another name."""
    head, *rest = dotted.split(".")
    if head == "mixedcurv":
        head, *rest = rest
        if head not in modules:
            return False
    if head in modules:
        owner = modules[head]
    elif re.match(r"[A-Z][a-z]", head):
        if head not in classes:
            return False
        owner = classes[head]
    else:
        return None
    for name in rest:
        if not _has(owner, name):
            return False
        owner = getattr(owner, name, None)
    return True


def test_readme_names_resolve():
    modules = _modules()
    classes = _classes(modules)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    exempt = {m["name"] for m in bench["per_layer"]}
    names = set(NAME.findall((ROOT / "README.md").read_text()))
    checked = {n for n in names - exempt if _resolves(n, modules, classes) is not None}
    assert {"jets.einsum", "PointGeometry.hfr", "mixedcurv.jets"} <= checked
    stale = sorted(n for n in checked if not _resolves(n, modules, classes))
    assert not stale, f"README.md names what the package does not have: {stale}"


def test_a_stale_name_is_caught():
    modules = _modules()
    classes = _classes(modules)
    for name in ("jets.tensordot", "ArrayJet.sum", "Structure.require_box",
                 "mixedcurv.nomodule"):
        assert _resolves(name, modules, classes) is False
    assert _resolves("geom.perp", modules, classes) is None
