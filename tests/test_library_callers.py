"""Every top-level definition and public member of the package has a
library caller.

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

A public method or property of a class of ``src/mixedcurv`` (a name
without a leading underscore) is read when it has at least one of:

- a read in ``src/`` outside its own body: an attribute of any object, or a
  part of a dotted string that is not a docstring (the bundle paths of
  ``variations.FORMULAS`` and ``gallery.BUNDLE_QUANTITIES``, ``"tan.s_ex"``
  or ``"dnorm_h_B"``, reach their members through ``attrgetter``);
- a reference in ``perfbench/``: a name, an attribute, or a part of a
  dotted string.

A definition that only tests reach belongs in ``tests/``, beside the
oracles there; a member that only tests read is deleted, and the tests
read what it wrapped.
"""

import ast
import re
from collections import Counter
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


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _string_parts(text):
    """The parts of a string that reads as a dotted name: ``"tan.s_ex"``
    gives ``tan`` and ``s_ex``; any other string gives nothing."""
    return text.split(".") if DOTTED.fullmatch(text) else []


def _bench_references(tree):
    """Every name, attribute, string and dotted part of a string of a
    benchmark file."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
            out.update(_string_parts(n.value))
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


def _docstrings(tree):
    """The ids of the docstring nodes of a module and its definitions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def _member_reads(node, skip):
    """The member names read under ``node``: attributes, and the dotted parts
    of its strings whose ids are not in ``skip``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in skip):
            out.update(_string_parts(n.value))
    return out


def unread_members(package, bench):
    """``file:Class.member`` of each public method and property of a class
    of ``package`` ((file, text) pairs) that nothing above reads; ``bench``
    holds the benchmark's (file, text) pairs."""
    trees = {file: ast.parse(text, filename=file) for file, text in package}
    skips = {file: _docstrings(tree) for file, tree in trees.items()}
    reads = sum((_member_reads(tree, skips[file]) for file, tree in trees.items()), Counter())
    bench_refs = set()
    for file, text in bench:
        bench_refs |= _bench_references(ast.parse(text, filename=file))
    left = []
    for file, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or fn.name.startswith("_") or fn.name in bench_refs):
                    continue
                if reads[fn.name] - _member_reads(fn, skips[file])[fn.name] <= 0:
                    left.append(f"{file}:{cls.name}.{fn.name}")
    return sorted(left)


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


def test_every_public_member_is_read_by_the_library():
    package = _sources(PACKAGE)
    left = unread_members(package, _sources(ROOT / "perfbench"))
    assert not left, (f"{len(left)} public members only tests read; delete them and "
                      "let the tests read what they wrap:\n" + "\n".join(left))


def test_a_same_named_method_or_own_body_does_not_count():
    left = unreached([("pkg.py", SYNTHETIC)], [("bench.py", "lib.pkg.benched()")])
    assert left == ["pkg.py:method_alike", "pkg.py:recursive"]
    # the method reads itself only inside its own body
    members = unread_members([("pkg.py", SYNTHETIC)], [])
    assert members == ["pkg.py:Holder.method_alike"]


SYNTHETIC_MEMBERS = """
\"\"\"Frame.in_docstring\"\"\"

PATHS = {"first": "frame.tan.by_path"}


class Frame:
    @property
    def by_path(self):
        return 0

    def by_attribute(self):
        return 0

    def own_body(self, k):
        return self.own_body(k - 1) if k else 0

    def in_docstring(self):
        \"\"\"in_docstring\"\"\"
        return 0

    def benched(self):
        return 0

    def _private(self):
        return 0


def use(frame):
    return frame.by_attribute()
"""


def test_a_member_counts_through_an_attribute_or_a_dotted_string():
    left = unread_members([("pkg.py", SYNTHETIC_MEMBERS)],
                          [("bench.py", 'SPANS = ("pkg", "Frame.benched")')])
    assert left == ["pkg.py:Frame.in_docstring", "pkg.py:Frame.own_body"]
