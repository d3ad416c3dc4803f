"""Spans and counters recorded from outside the library.

Nothing here changes the library's code: a :class:`Spans` or
:class:`Counters` context swaps chosen module attributes and class methods
for recording wrappers and puts the originals back on exit.  A function that
one module imported from another is bound under several names; every binding
of the same object in the package is swapped, so calls through any of them
are seen.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "mixedcurv"

# (module, function) pairs wrapped in a span: the public entry points of
# each layer that the workloads call, directly or through another layer.
SPAN_TARGETS = (
    ("structure", "load_structure"),
    ("structure", "orthonormal_frame"),
    ("gallery", "load_entry"),
    ("gallery", "evaluate_quantity"),
    ("geometry", "identity_suite"),
    ("geometry", "smix_density_fast"),
    ("euler_lagrange", "el_general"),
    ("euler_lagrange", "el_flow"),
    ("euler_lagrange", "el_tildeT_action"),
    ("euler_lagrange", "el_codim1"),
    ("euler_lagrange", "integrate"),
    ("variations", "verify_first_variation"),
    ("variations", "evolve_frame"),
    ("variations", "tangent_projector_jets"),
    ("variations", "action_value"),
    ("variations", "action_derivative"),
    ("variations", "verify_bar_relation"),
    ("cli", "main"),
)

JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
           "_reciprocal", "_compose")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class _Swap:
    """Replace every package-level binding of an object; undo on exit."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        orig = getattr(module, name)
        wrapper = make_wrapper(orig)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, orig))

    def method(self, cls, name, make_wrapper):
        orig = cls.__dict__[name]
        setattr(cls, name, make_wrapper(orig))
        self._undo.append((cls, name, orig))

    def restore(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


class Spans:
    """Spans around the layer entry points: (id, parent, name, item, start, end).

    Spans of one item share the item index; ``parent`` is the span that was
    open when this one started, so self time can be derived."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.item = None
        self._stack = []
        self._swap = _Swap()

    def __enter__(self):
        for mod, name in SPAN_TARGETS:
            self._swap.function(getattr(self.lib, mod), name,
                                lambda f, label=f"{mod}.{name}": self._wrap(label, f))
        return self

    def __exit__(self, *exc):
        self._swap.restore()
        return False

    def _wrap(self, label, f):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, label, self.item, t0, clock())
                stack.pop()

        return wrapper

    def per_call_ms(self, label):
        """(calls, mean duration in ms) of spans with this label."""
        ds = [s[5] - s[4] for s in self.spans if s[2] == label]
        return len(ds), (1e3 * sum(ds) / len(ds) if ds else 0.0)

    def summary(self):
        """Calls, total and self time per label (self = minus child spans)."""
        out = {}
        child = {}
        for sid, parent, label, item, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, parent, label, item, t0, t1 in self.spans:
            rec = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child.get(sid, 0.0)
        return out


class Counters:
    """Deterministic work counts: scalar jet operations, quadrature nodes
    generated, and nodes that action derivatives skip outside the support."""

    def __init__(self, lib):
        self.lib = lib
        self.jet_ops = 0
        self.grid_nodes = 0
        self.skipped = 0
        self._swap = _Swap()

    def __enter__(self):
        for name in JET_OPS:
            self._swap.method(self.lib.jets.Jet, name, self._count_op)
        self._swap.function(self.lib.euler_lagrange, "grid_points", self._count_grid)
        # the support test of action_derivative; False means the node is skipped
        self._swap.function(self.lib.variations, "_inside", self._count_skip)
        return self

    def __exit__(self, *exc):
        self._swap.restore()
        return False

    @property
    def nodes(self):
        return self.grid_nodes - self.skipped

    def _count_op(self, f):
        def op(*args):
            self.jet_ops += 1
            return f(*args)
        return op

    def _count_grid(self, f):
        def grid_points(q):
            pts, wts = f(q)
            self.grid_nodes += len(pts)
            return pts, wts
        return grid_points

    def _count_skip(self, f):
        def inside(pt, box):
            ok = f(pt, box)
            if not ok:
                self.skipped += 1
            return ok
        return inside
