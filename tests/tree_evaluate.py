"""The recursive walk of an expression tree: the reference of ``exprlang.Program``.

``exprlang.Program`` compiles a list of ASTs into one straight-line program
in which every structurally equal subtree runs once.  This walk evaluates
one AST node by node, every subtree as often as it occurs, and stays here
as the oracle of the tests that check the compiled form.
"""

from mixedcurv import jets
from mixedcurv.errors import NameResolutionError, SingularEvaluationError
from mixedcurv.exprlang import Binary, Const, Param, Unary, Var


def tree_evaluate(ast, env, params=None):
    """Evaluate an AST; ``env`` maps coordinate index -> scalar (float, Jet
    or ArrayJet).

    An arithmetic error (a float division by zero, an overflow in ``exp``)
    surfaces as :class:`SingularEvaluationError` carrying the point."""
    try:
        if isinstance(ast, Const):
            return ast.value
        if isinstance(ast, Var):
            return env[ast.index]
        if isinstance(ast, Param):
            if params is None or ast.name not in params:
                raise NameResolutionError(ast.name)
            return params[ast.name]
        if isinstance(ast, Unary):
            child = tree_evaluate(ast.child, env, params)
            if ast.fn == "neg":
                return -child
            return jets.elementary(child, ast.fn)
        if isinstance(ast, Binary):
            left = tree_evaluate(ast.left, env, params)
            right = tree_evaluate(ast.right, env, params)
            if ast.op == "+":
                return left + right
            if ast.op == "-":
                return left - right
            if ast.op == "*":
                return left * right
            if ast.op == "/":
                return left / right
            return jets.jpow(left, right)
    except ArithmeticError as exc:
        # raised in the innermost frame; the outer frames pass it on unchanged
        raise SingularEvaluationError(
            f"arithmetic error in expression ({type(exc).__name__}: {exc})",
            point=[jets.value_of(x) for x in env]) from None
    raise TypeError(f"not an expression node: {ast!r}")
