"""Compiled expression programs against the recursive walk.

``exprlang.Program`` compiles a list of ASTs into one straight-line program
in which every structurally equal subtree is one instruction.  Its outputs
must be bit for bit those of ``tree_evaluate`` on each AST, at floats,
scalar jets and node-array jets, and where the walk raises, the program
raises the same error (class, message and point) after the same outputs.
The instruction counts of the gallery's metrics and spans and of seeded
variations are pinned, so a change that loses the sharing fails here.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcurv import exprlang as ex
from mixedcurv import gallery
from mixedcurv import variations as va
from mixedcurv.errors import SingularEvaluationError
from mixedcurv.exprlang import Binary, Const, Param, Program, Unary, Var
from mixedcurv.jets import ArrayJet, Jet, seed
from mixedcurv.structure import load_structure
from tree_evaluate import tree_evaluate

LEAVES = [Const(0.0), Const(-0.0), Const(math.nan), Const(1.5), Const(-2.0), Const(3.0),
          Var(0), Var(1), Param("c"), Param("k")]
UNARY = ["neg"] + sorted(ex._FUNCTIONS)
BINARY = ["+", "-", "*", "/"]
# A power's exponent is a small constant or a coordinate: an integer-valued
# exponent runs one multiplication per unit, in the walk as in a program.
EXPONENTS = [Const(2.0), Const(-1.0), Const(0.5), Const(3.0), Var(1)]
POINTS = [(0.3, -1.7), (0.0, 0.4), (1.2, 0.0), (-0.6, 0.9)]
PARAMS = [{"c": 0.7, "k": -1.25}, {"c": 0.7}, None]


@st.composite
def shared_asts(draw):
    """A list of ASTs whose subtrees come from one growing pool, so that
    equal subtrees recur within and across them."""
    pool = list(LEAVES)
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(UNARY + BINARY + ["^"]))
        if op in UNARY:
            pool.append(Unary(op, draw(st.sampled_from(pool))))
        else:
            right = draw(st.sampled_from(EXPONENTS if op == "^" else pool))
            pool.append(Binary(op, draw(st.sampled_from(pool)), right))
    return draw(st.lists(st.sampled_from(pool[len(LEAVES) - 2:]), min_size=1, max_size=5))


def _bits(x):
    """The type and the bits of a value, of every part of a jet."""
    def raw(a):
        a = np.asarray(a, dtype=float)
        return a.shape, a.tobytes()
    if isinstance(x, (Jet, ArrayJet)):
        return type(x), raw(x.v), raw(x.g), None if x.h is None else raw(x.h)
    return type(x), struct.pack("<d", x) if isinstance(x, float) else x


def _outcomes(values):
    """The bits of each value, then the error that ended the run, if any."""
    out = []
    try:
        for v in values:
            out.append(_bits(v))
    except Exception as exc:
        out.append((type(exc), str(exc), repr(getattr(exc, "point", None))))
    return out


def _envs(pt):
    nodes = np.array([pt, POINTS[1], POINTS[0]])
    return {"float": list(pt), "jet": seed(pt, 2), "nodes": seed(nodes, 2)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shared_asts(), st.sampled_from(POINTS), st.sampled_from(PARAMS))
def test_program_matches_the_walk(asts, pt, params):
    prog = Program(asts)
    with np.errstate(all="ignore"):
        for env in _envs(pt).values():
            want = _outcomes(tree_evaluate(a, env, params) for a in asts)
            assert _outcomes(prog.run(env, params)) == want
            one = _outcomes(ex.evaluate(a, env, params) for a in asts[:1])
            assert one == _outcomes(tree_evaluate(a, env, params) for a in asts[:1])


def test_equal_subtrees_are_one_instruction():
    x0, x1 = Var(0), Var(1)
    bump = Binary("^", Unary("cos", Binary("*", Const(2.0), x0)), Const(4.0))
    asts = [Binary("*", bump, x1), Binary("+", bump, Binary("*", bump, x1)), bump]
    prog = Program(asts)
    # x0, 2, 2 x0, cos, 4, ^, x1, *, +: the third output is the first's subtree
    assert len(prog.code) == 9
    assert [end for _, end in prog.outputs] == [8, 9, 9]


def test_signed_zeros_and_nans_stay_apart():
    asts = [Binary("*", Const(0.0), Var(0)), Binary("*", Const(-0.0), Var(0)),
            Binary("*", Const(math.nan), Var(0)), Binary("*", Const(0.0), Var(0))]
    prog = Program(asts)
    assert len(prog.code) == 7
    got = list(prog.run([0.5]))
    assert [math.copysign(1.0, v) for v in got[:2]] == [1.0, -1.0]
    assert math.isnan(got[2]) and got[3] is got[0]


def test_a_check_between_entries_comes_before_a_later_error():
    # entry (0, 0) overflows to inf without raising; entry (1, 1) divides by
    # zero: the check of the first entry raises first, as entry by entry
    s = load_structure("dim = 3\ndtilde_dim = 1\nmetric 0 0 = x0 * 1e308 * 10\n"
                       "metric 1 1 = 1 / x1\nmetric 2 2 = 1\ndtilde 0 = 0, 0, 1\n"
                       "domain = [-1, 1] x [-1, 1] x [-1, 1]\n")
    with pytest.raises(SingularEvaluationError) as err:
        s.metric_at([1.0, 0.0, 0.5])
    assert str(err.value) == "non-finite intermediate value at point (1.0, 0.0, 0.5)"
    with pytest.raises(SingularEvaluationError) as err:
        s.metric_at([0.05, 0.0, 0.5])
    assert str(err.value).startswith("arithmetic error in expression (ZeroDivisionError")


def _tree_nodes(ast):
    if isinstance(ast, Unary):
        return 1 + _tree_nodes(ast.child)
    if isinstance(ast, Binary):
        return 1 + _tree_nodes(ast.left) + _tree_nodes(ast.right)
    return 1


# entry: (metric tree nodes, metric instructions, span tree nodes, span instructions)
PROGRAM_SIZES = {
    "euclidean_product": (3, 1, 3, 2),
    "lorentz_product": (5, 2, 4, 2),
    "r3_contact": (24, 14, 3, 2),
    "s3_hopf": (51, 14, 30, 18),
    "s7_three_sasakian": (231, 26, 206, 69),
    "codim1_coth_tanh": (25, 13, 6, 2),
    "codim1_tau_riccati": (45, 15, 6, 2),
    "warped_product": (10, 8, 8, 2),
    "nil4_flow": (9, 5, 4, 2),
}


@pytest.mark.parametrize("name", gallery.list_entries())
def test_gallery_program_sizes(name):
    s = gallery.load_entry(name).structure
    span = [c for vec in s.dtilde for c in vec]
    assert (sum(map(_tree_nodes, s.metric_upper.values())), len(s._metric_program.code),
            sum(map(_tree_nodes, span)), len(s._dtilde_program.code)) == PROGRAM_SIZES[name]


@pytest.mark.parametrize("name,sizes", [("r3_contact", (192, 50)),
                                        ("lorentz_product", (410, 76))])
def test_variation_program_sizes(name, sizes):
    s = gallery.load_entry(name).structure
    v = va.random_variation(s, "perp", 1)
    upper = [v.raw[i][j] for i in range(s.dim) for j in range(i, s.dim)]
    assert (sum(map(_tree_nodes, upper)), len(v._program.code)) == sizes
