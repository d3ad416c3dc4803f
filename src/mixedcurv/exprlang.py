"""Closed-form expression language for metric components and field data.

Grammar (tightest first):  ``^`` (right associative)  >  unary ``-``  >
``*``, ``/``  >  ``+``, ``-``, plus parentheses and unary function calls
``fn(expr)``.  Variables are ``x0 .. x{d-1}``; any other identifier must be a
declared parameter or a function name.  Numbers are decimal literals with an
optional exponent.

ASTs are immutable after parsing.  A :class:`Program` compiles a list of
them once and evaluates each structurally equal subexpression once per run;
runs are reentrant, and jets flow through them unchanged because they only
use ring operations and the elementary functions of :mod:`jets`.
"""

from __future__ import annotations

import operator
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import jets
from .errors import (ExprSyntaxError, NameResolutionError, SingularEvaluationError,
                     member_point)


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int          # chart coordinate index, variable name is x{index}


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Unary:
    fn: str             # elementary function name or "neg"
    child: object


@dataclass(frozen=True)
class Binary:
    op: str             # one of + - * / ^
    left: object
    right: object


_FUNCTIONS = frozenset(jets.ELEMENTARY)


# ----------------------------------------------------------------------
# Tokenizer

_OPS = "+-*/^(),"


def _tokenize(text):
    """Yields (kind, value, offset); kind in {num, name, op, end}."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprSyntaxError(i, {"number"}, f"bad numeric literal {lit!r}")
            toks.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, {"number", "name", "operator"},
                              f"unexpected character {c!r}")
    toks.append(("end", None, n))
    return toks


# ----------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, toks, dim, params):
        self.toks = toks
        self.pos = 0
        self.dim = dim
        self.params = frozenset(params)

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.take()
        raise ExprSyntaxError(off, {op}, f"expected {op!r}")

    def parse(self):
        node = self.sum_()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(off, {"end of input"}, f"trailing input {val!r}")
        return node

    def sum_(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = Binary(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = Binary(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            # right-associative exponent; unary minus allowed in the exponent
            return Binary("^", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            node = self.sum_()
            self.expect_op(")")
            return node
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in _FUNCTIONS:
                    raise NameResolutionError(val, offset=off)
                self.take()
                arg = self.sum_()
                self.expect_op(")")
                return Unary(val, arg)
            if len(val) > 1 and val[0] == "x" and val[1:].isdigit():
                idx = int(val[1:])
                if idx >= self.dim:
                    raise NameResolutionError(val, offset=off)
                return Var(idx)
            if val in self.params:
                return Param(val)
            raise NameResolutionError(val, offset=off)
        raise ExprSyntaxError(off, {"number", "name", "(", "-"},
                              f"unexpected token {val!r}")


def parse(text, dim, params=()):
    """Parse ``text`` into an AST over variables x0..x{dim-1} and ``params``."""
    if not text or not text.strip():
        raise ExprSyntaxError(0, {"expression"}, "empty expression")
    return _Parser(_tokenize(text), dim, params).parse()


# ----------------------------------------------------------------------
# Evaluation and utilities

class Program:
    """A list of ASTs compiled into one straight-line program in which every
    structurally equal subtree is one instruction (value numbering).

    An instruction's key holds its children's slots, so equal subtrees meet
    at compile time; a constant is keyed by its type and bits, so ``0.0`` and
    ``-0.0`` stay apart.  Output k adds the instructions of its tree that no
    earlier output holds, in the tree's post-order, so it gets the value and
    the first error that a walk of its tree would."""

    def __init__(self, asts):
        self.code = []          # (kind, a, b, c); instruction k fills slot k
        slots = {}
        # (slot of output k, instructions run before it is read)
        self.outputs = [(self._slot(ast, slots), len(self.code)) for ast in asts]

    def _slot(self, ast, slots):
        if isinstance(ast, Const):
            v = ast.value
            key = ("c", type(v), struct.pack("<d", v) if isinstance(v, float) else v)
            op = ("c", v, None, None)
        elif isinstance(ast, Var):
            key = op = ("v", ast.index, None, None)
        elif isinstance(ast, Param):
            key = op = ("p", ast.name, None, None)
        elif isinstance(ast, Unary):
            child = self._slot(ast.child, slots)
            # an unknown function name raises when the instruction runs, as in a walk
            f = operator.neg if ast.fn == "neg" else partial(jets.elementary, fn=ast.fn)
            key, op = ("u", ast.fn, child), ("u", f, child, None)
        elif isinstance(ast, Binary):
            left, right = self._slot(ast.left, slots), self._slot(ast.right, slots)
            key, op = ("b", ast.op, left, right), ("b", _BINARY[ast.op], left, right)
        else:
            raise TypeError(f"not an expression node: {ast!r}")
        if key not in slots:
            slots[key] = len(self.code)
            self.code.append(op)
        return slots[key]

    def run(self, env, params=None):
        """The outputs at ``env`` (coordinate index -> scalar: float, Jet or
        ArrayJet), one at a time: an output's instructions run only when the
        caller asks for it, so a check of output k comes before an error of
        a later output.

        An arithmetic error (a float division by zero, an overflow in
        ``exp``) surfaces as :class:`SingularEvaluationError` carrying the
        point (at node seeds, the first node where it occurs).  An infinite
        or NaN value is left to the caller's ``check_finite``: numpy, whose
        arrays alone would warn, is kept quiet."""
        vals = []
        push = vals.append
        quiet = (partial(np.errstate, over="ignore", invalid="ignore")
                 if any(isinstance(x, jets.ArrayJet) for x in env) else nullcontext)
        try:
            for out, end in self.outputs:
                with quiet():
                    for kind, a, b, c in self.code[len(vals):end]:
                        if kind == "b":
                            push(a(vals[b], vals[c]))
                        elif kind == "u":
                            push(a(vals[b]))
                        elif kind == "c":
                            push(a)
                        elif kind == "v":
                            push(env[a])
                        elif params is None or a not in params:
                            raise NameResolutionError(a)
                        else:
                            push(params[a])
                yield vals[out]
        except ArithmeticError as exc:
            raise SingularEvaluationError(
                f"arithmetic error in expression ({type(exc).__name__}: {exc})",
                point=member_point([jets.value_of(x) for x in env],
                                   getattr(exc, "at", None))) from None


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": jets.jpow}


def evaluate(ast, env, params=None):
    """The value of one AST at ``env``: the one-output case of
    :class:`Program`, with its errors."""
    return next(Program([ast]).run(env, params))


# Small AST constructors used when building variation tensors in code.

def const(v):
    return Const(float(v))


def add(*nodes):
    out = None
    for nd in nodes:
        out = nd if out is None else Binary("+", out, nd)
    return out if out is not None else Const(0.0)


def mul(*nodes):
    out = None
    for nd in nodes:
        out = nd if out is None else Binary("*", out, nd)
    return out if out is not None else Const(1.0)


def powc(node, e):
    return Binary("^", node, Const(float(e)))
