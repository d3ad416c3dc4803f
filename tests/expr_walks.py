"""Recursive walks of an expression tree that the engine does not need:
its free coordinate variables, and its text, fully parenthesized so that
it parses back to an equal tree.
"""

from mixedcurv.exprlang import Binary, Const, Param, Unary, Var


def free_vars(ast):
    """Set of coordinate variable names appearing in the AST."""
    out = set()
    _walk_vars(ast, out)
    return out


def _walk_vars(ast, out):
    if isinstance(ast, Var):
        out.add(f"x{ast.index}")
    elif isinstance(ast, Unary):
        _walk_vars(ast.child, out)
    elif isinstance(ast, Binary):
        _walk_vars(ast.left, out)
        _walk_vars(ast.right, out)


def pretty(ast):
    """Unambiguous fully parenthesized rendering; reparses to an equal AST."""
    if isinstance(ast, Const):
        return repr(ast.value)
    if isinstance(ast, Var):
        return f"x{ast.index}"
    if isinstance(ast, Param):
        return ast.name
    if isinstance(ast, Unary):
        if ast.fn == "neg":
            return f"(-{pretty(ast.child)})"
        return f"{ast.fn}({pretty(ast.child)})"
    if isinstance(ast, Binary):
        return f"({pretty(ast.left)} {ast.op} {pretty(ast.right)})"
    raise TypeError(f"not an expression node: {ast!r}")
