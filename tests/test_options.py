"""Every option of the package is set by some call.

An option is a parameter with a default of a function in ``src/mixedcurv``
(methods and nested functions included), or a dataclass field with a
default.  It must be set by at least one call in ``src/``, ``perfbench/`` or
``tests/``: by keyword, by position, or, for a field, by
``dataclasses.replace``.  A call resolves by the called name alone:
``f(...)`` and ``x.f(...)`` reach every function, method or class named
``f`` (a method skips ``self``; a class call maps to its dataclass fields or
its ``__init__``).  A value that is a bare name bound to a parameter of an
enclosing named function forwards that parameter, and counts only if some
call sets the parameter itself: a defaulted parameter is an option, and a
required one is followed the same way, so an option that only a helper's
required parameter sets is set only if a call gives the helper a set value.
A starred argument sets every parameter from its position on, and
``**kwargs`` every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixedcurv"
STAR = object()             # a starred argument or ``**kwargs``


def _is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


class _Census(ast.NodeVisitor):
    """Options, callables and calls of the scanned files.

    ``targets`` maps a called name to (positional parameters, key of each
    parameter, number of leading parameters a call skips); ``calls`` holds
    (name, positional values, keyword values) with each value the parameter
    key it forwards, None for a value of the call's own, or STAR.  Only the
    keys of defaulted parameters and fields are options."""

    def __init__(self):
        self.options = {}       # option key -> whether it is the package's
        self.targets = {}
        self.fields = {}        # dataclass field name -> option keys
        self.calls = []
        self._scopes = []       # enclosing functions' {parameter: key, None in a lambda}

    def scan(self, file, text, ours):
        self._file, self._ours = file, ours
        self.visit(ast.parse(text, filename=file))

    def _key(self, *names):
        return f"{self._file}:{'.'.join(names)}"

    def _option(self, *names):
        key = self._key(*names)
        self.options[key] = self._ours
        return key

    def visit_ClassDef(self, node):
        for d in node.decorator_list:
            self.visit(d)
        if _is_dataclass(node):
            names, options = [], {}
            for st in node.body:
                if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name):
                    names.append(st.target.id)
                    if st.value is not None:
                        options[st.target.id] = self._option(node.name, st.target.id)
                        self.fields.setdefault(st.target.id, []).append(options[st.target.id])
            self.targets.setdefault(node.name, []).append((names, options, 0))
        for st in node.body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(st, owner=node.name)
            else:
                self.visit(st)

    def visit_FunctionDef(self, node):
        self._function(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._function(node, named=False)

    def _function(self, node, owner=None, named=True):
        a = node.args
        for d in getattr(node, "decorator_list", []) + a.defaults + a.kw_defaults:
            if d is not None:
                self.visit(d)
        positional = [x.arg for x in a.posonlyargs + a.args]
        params = positional + [x.arg for x in a.kwonlyargs]
        bound = dict.fromkeys(params)
        bound.update(dict.fromkeys(x.arg for x in (a.vararg, a.kwarg) if x))
        if named:
            defaulted = positional[len(positional) - len(a.defaults):] + [
                x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            path = (owner, node.name) if owner else (node.name,)
            keys = {p: self._key(*path, p) for p in params}
            keys.update((p, self._option(*path, p)) for p in defaulted)
            bound.update(keys)
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            target = (positional, keys, int(owner is not None and not static))
            self.targets.setdefault(node.name, []).append(target)
            if owner and node.name == "__init__":
                self.targets.setdefault(owner, []).append(target)
        self._scopes.append(bound)
        for st in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(st)
        self._scopes.pop()

    def _value(self, value):
        if isinstance(value, ast.Starred):
            return STAR
        if isinstance(value, ast.Name):
            for scope in reversed(self._scopes):
                if value.id in scope:
                    return scope[value.id]
        return None

    def visit_Call(self, node):
        self.generic_visit(node)
        f = node.func
        name = getattr(f, "id", None) or getattr(f, "attr", None)
        self.calls.append((name, [self._value(x) for x in node.args],
                           {kw.arg: STAR if kw.arg is None else self._value(kw.value)
                            for kw in node.keywords}))


def _tree():
    """(file, text, whether it is the package's) of every scanned file."""
    for folder in ("src", "perfbench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text(), PACKAGE in path.parents


def _census(sources):
    """The options of ``sources`` ((file, text, ours) triples), and the set
    of them some call sets."""
    c = _Census()
    for source in sources:
        c.scan(*source)
    edges = []                  # (value, key): the value sets the parameter
    for name, args, kwargs in c.calls:
        if name == "replace":
            edges += [(v, key) for k, v in kwargs.items() for key in c.fields.get(k, ())]
        for positional, options, skip in c.targets.get(name, ()):
            for i, v in enumerate(args):
                rest = positional[i + skip:]
                for p in (rest if v is STAR else rest[:1]):
                    if p in options:
                        edges.append((v, options[p]))
            for k, v in kwargs.items():
                edges += [(v, key) for p, key in options.items() if k in (p, None)]
    done = {key for v, key in edges if v is None or v is STAR}
    while more := {key for v, key in edges if v in done} - done:
        done |= more
    return [k for k, ours in c.options.items() if ours], done


def test_every_option_is_set_by_a_call():
    options, done = _census(_tree())
    assert len(options) > 50, "the census finds too few options: it reads nothing"
    unset = sorted(set(options) - done)
    assert not unset, f"{len(unset)} options no call sets:\n" + "\n".join(unset)


# An option that only a helper's required parameter sets: the field is set
# by ``_report``'s ``tol``, and the only value ``_report`` gets is the unset
# option ``check.tol``.
REQUIRED_FORWARD = """
from dataclasses import dataclass

@dataclass
class Report:
    value: float
    tolerance: float = 1e-6

def _report(value, tol):
    return Report(value, tolerance=tol)

def check(value, tol=1e-6):
    return _report(value, tol)

def caller():
    return check(1.0)
"""


def test_census_follows_a_required_parameter():
    options, done = _census([("synthetic.py", REQUIRED_FORWARD, True)])
    assert set(options) - done == {"synthetic.py:Report.tolerance", "synthetic.py:check.tol"}
    set_by_caller = REQUIRED_FORWARD.replace("check(1.0)", "check(1.0, tol=1e-3)")
    options, done = _census([("synthetic.py", set_by_caller, True)])
    assert set(options) <= done
