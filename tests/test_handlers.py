"""No handler in the package may swallow a bug.

A route's miss is a PreconditionError; an InternalContradiction means a
bug and must reach the caller.  A bare `except` or one naming Exception,
BaseException, RuntimeError (InternalContradiction's base) or
InternalContradiction itself could turn that bug into a note.  The one
allowed catch-all is the CLI's backstop, which ends the run with exit 4.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equitiler"
BROAD = {"Exception", "BaseException", "RuntimeError", "InternalContradiction"}
ALLOWED = [("cli.py", "main", "Exception")]


def broad_handlers(source: str, filename: str):
    """(file, enclosing function, caught name) of every broad handler."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                out.append((filename, func, "<bare>"))
            else:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                # `errors.InternalContradiction` counts as its last name
                names = [ast.unparse(kind).rsplit(".", 1)[-1] for kind in kinds]
                out.extend((filename, func, name) for name in names if name in BROAD)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source, filename), None)
    return out


def test_only_the_cli_backstop_catches_broadly():
    found = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        found += broad_handlers(path.read_text(), path.name)
    assert found == ALLOWED


def test_every_broad_form_is_flagged():
    sample = """
def f():
    try:
        pass
    except:
        pass
    try:
        pass
    except (KeyError, errors.InternalContradiction):
        pass
    try:
        pass
    except RuntimeError as e:
        pass
    except BaseException:
        pass
    except ValueError:
        pass
"""
    assert [name for _, _, name in broad_handlers(sample, "x.py")] == [
        "<bare>", "InternalContradiction", "RuntimeError", "BaseException",
    ]
