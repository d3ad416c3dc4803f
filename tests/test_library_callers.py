"""Every top-level function and class of the package has a library caller.

A top-level definition of ``src/mixedcurv`` is reached when it has at
least one of:

- a reference in ``src/`` outside its own body: a bare name, or an
  attribute of a name bound to a module of the package (``exprlang.parse``
  after ``from . import exprlang``).  An attribute of any other object is a
  method of the same name and does not count, nor does an import;
- a reference in ``perfbench/``: a name, an attribute or a string (the
  benchmark reaches the package through ``lib.<module>.<name>``, and its
  traced functions are named by the strings of ``tracing.SPAN_TARGETS``);
- an entry in the package's ``__all__``.

A definition that only tests reach belongs in ``tests/``, beside the
oracles there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixedcurv"


def _sources(folder):
    return [(str(p.relative_to(ROOT)), p.read_text()) for p in sorted(folder.rglob("*.py"))]


def _module_names(tree):
    """The names a file binds to modules of the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level and node.module is None) or node.module == "mixedcurv"):
            out |= {a.asname or a.name for a in node.names}
    return out


def _library_references(tree):
    """The names the statements of a package file reference, each
    statement's own definition excluded from its body."""
    modules = _module_names(tree)
    out = set()
    for st in tree.body:
        names = {n.id for n in ast.walk(st) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(st) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id in modules}
        names.discard(getattr(st, "name", None))
        out |= names
    return out


def _bench_references(tree):
    """Every name, attribute and string of a benchmark file."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _exported(tree):
    return {name for st in tree.body if isinstance(st, ast.Assign)
            for t in st.targets if getattr(t, "id", None) == "__all__"
            for name in ast.literal_eval(st.value)}


def unreached(package, bench):
    """``file:name`` of each top-level function and class of ``package``
    ((file, text) pairs) that nothing above reaches; ``bench`` holds the
    benchmark's (file, text) pairs."""
    trees = {file: ast.parse(text, filename=file) for file, text in package}
    reached = set()
    for tree in trees.values():
        reached |= _library_references(tree) | _exported(tree)
    for file, text in bench:
        reached |= _bench_references(ast.parse(text, filename=file))
    defs = [(file, st.name) for file, tree in trees.items() for st in tree.body
            if isinstance(st, (ast.FunctionDef, ast.ClassDef))]
    return sorted(f"{file}:{name}" for file, name in defs if name not in reached)


def test_every_definition_has_a_library_caller():
    package = _sources(PACKAGE)
    assert len(package) > 5, "the scan reads too few package files"
    left = unreached(package, _sources(ROOT / "perfbench"))
    assert not left, (f"{len(left)} definitions only tests reach; move them to tests/:\n"
                      + "\n".join(left))


SYNTHETIC = """
from . import other

def used():
    return helper()

def helper():
    return other.via_module()

def via_module():
    return 1

def recursive(k):
    return recursive(k - 1) if k else 0

def method_alike(x):
    return x

class Holder:
    def method_alike(self):
        return self.method_alike()

def benched():
    return 0

def exported():
    return 0

__all__ = ["used", "Holder", "exported"]
"""


def test_a_same_named_method_or_own_body_does_not_count():
    left = unreached([("pkg.py", SYNTHETIC)], [("bench.py", "lib.pkg.benched()")])
    assert left == ["pkg.py:method_alike", "pkg.py:recursive"]
