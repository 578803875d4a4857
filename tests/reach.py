"""Reach of the drawn decisions: package functions no drawn input calls,
the raise sites that fire, and the route statements no input executes.

    python tests/reach.py

Builds the structured, dense and exact cases of `benchmarks/corpus.py`
and the scoreboard inputs of `tests/test_regime.py`, then decides each
one under `sys.setprofile` and `sys.settrace`.  Only the decisions are
traced, not the building of their inputs.  The report has three lists:

- every function of the package (a `def`, not a lambda, a comprehension
  or a class body) whose code no decision started, with its line span;
- every raise statement of the package that ended a frame, with the number
  of times it did.  A raise caught inside its own frame is not seen;
- every statement of a function body in `decide.py`, `partition.py` or
  `tiling.py`, other than a `raise`, a docstring or a `try`, that no
  decision executed, with its first line.  A branch inside a function
  that is reached shows here and in no list above.  A compound statement
  counts as executed when a line of its header runs (for an `if`, the
  lines of its test), so its unexecuted body statements are listed
  apart from it.

Exceptions that a route turns into a miss note are counted like any
other.  The script exits 0 whatever it finds: the lists are a report for a
reader deciding which branch a drawn input should reach or which code
should leave the package, not a gate.
"""

from __future__ import annotations

import ast
import dis
import importlib
import inspect
import linecache
import pkgutil
import sys
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

import equitiler  # noqa: E402
from equitiler import decide_equitable, decide_kr_factor  # noqa: E402

RAISE = dis.opmap["RAISE_VARARGS"]
# The modules of the decision ladder whose statements are listed.
ROUTE_MODULES = ("decide", "partition", "tiling")


def package_functions() -> Dict[Tuple[str, int, str], int]:
    """(file, first line, qualified name) -> line span, for every function of
    the package, from its source compiled afresh."""
    out: Dict[Tuple[str, int, str], int] = {}

    def walk(code: CodeType) -> Iterator[CodeType]:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                yield const
                yield from walk(const)

    for info in pkgutil.iter_modules(equitiler.__path__):
        path = importlib.import_module(f"equitiler.{info.name}").__file__
        for code in walk(compile(Path(path).read_text(), path, "exec")):
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_NEWLOCALS:
                continue  # a lambda, a comprehension or a class body
            lines = [line for _, _, line in code.co_lines() if line is not None]
            out[(path, code.co_firstlineno, code.co_qualname)] = max(lines) - min(lines) + 1
    return out


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a statement nested in
    it: a simple statement's whole span, a compound statement's header."""
    nested = [child.lineno for field in ("body", "orelse", "handlers", "finalbody")
              for child in getattr(node, field, ()) if isinstance(child, (ast.stmt, ast.excepthandler))]
    end = min(nested) if nested else node.end_lineno + 1
    return range(node.lineno, end)


def route_statements() -> Dict[Tuple[str, int], Tuple[str, range]]:
    """(file, first line) -> (function, own lines) for each statement of a
    function body in the ROUTE_MODULES, nested functions included, other
    than a raise, a docstring, a try or a global or nonlocal declaration:
    the statements that run when a decision does."""
    out: Dict[Tuple[str, int], Tuple[str, range]] = {}
    skip = (ast.Raise, ast.Try, ast.Global, ast.Nonlocal)

    def visit(node: ast.AST, path: str, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, ast.stmt) and function and not isinstance(child, skip):
                docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                if not docstring:
                    out[(path, child.lineno)] = (function, _own_lines(child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{function}.{child.name}" if function else child.name
            elif isinstance(child, ast.ClassDef) and not function:
                name = ""  # a class body runs at import; its methods below
                for item in child.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit(item, path, f"{child.name}.{item.name}")
                continue
            visit(child, path, name)

    for module in ROUTE_MODULES:
        path = importlib.import_module(f"equitiler.{module}").__file__
        visit(ast.parse(Path(path).read_text()), path, "")
    return out


def drawn_inputs() -> List[Tuple[str, object, int, object]]:
    """(mode, graph, r or k, constants) of the corpus and scoreboard
    decisions."""
    import corpus
    import test_regime

    out = []
    workloads = corpus.workloads()
    for name in ("structured", "dense", "exact"):
        out += [(c.mode, c.build(), c.value, c.cfg) for c in workloads[name].cases]
    for name in sorted(test_regime.FAMILIES):
        out += [(mode, g, value, None) for g, mode, value in test_regime.FAMILIES[name][0]()]
    return out


def trace(inputs) -> Tuple[Set[CodeType], Counter, Set[Tuple[str, int]]]:
    """The code objects the decisions start, the (file, line, function)
    of each raise that ends a frame, counted, and the (file, line) of each
    line of the ROUTE_MODULES that runs."""
    started: Set[CodeType] = set()
    raised: Counter = Counter()
    ran: Set[Tuple[str, int]] = set()
    prefix = str(Path(equitiler.__file__).parent)
    opcodes: Dict[CodeType, bytes] = {}
    route_files = {importlib.import_module(f"equitiler.{m}").__file__ for m in ROUTE_MODULES}

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in route_files else None

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)
        elif event == "return" and arg is None:
            code = frame.f_code
            ops = opcodes.get(code)
            if ops is None:
                ops = opcodes[code] = code.co_code
            if ops[frame.f_lasti] == RAISE and code.co_filename.startswith(prefix):
                raised[(code.co_filename, frame.f_lineno, code.co_qualname)] += 1

    for mode, g, value, cfg in inputs:
        decide = decide_kr_factor if mode == "factor" else decide_equitable
        sys.setprofile(profile)
        sys.settrace(calls)
        try:
            decide(g, value, cfg=cfg)
        finally:
            sys.settrace(None)
            sys.setprofile(None)
    return started, raised, ran


def main() -> int:
    functions = package_functions()
    inputs = drawn_inputs()
    started, raised, ran = trace(inputs)
    reached = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in started}
    missed = sorted(key for key in functions if key not in reached)
    print(
        f"reach: {len(inputs)} decisions; {len(functions) - len(missed)} of "
        f"{len(functions)} package functions reached"
    )
    print(f"unreached ({len(missed)}, {sum(functions[k] for k in missed)} lines):")
    for key in missed:
        print(f"  {Path(key[0]).stem}.{key[2]}  {functions[key]} lines")
    print(f"raise sites fired ({len(raised)}):")
    for (path, line, name), count in sorted(raised.items()):
        text = linecache.getline(path, line).strip()
        print(f"  {Path(path).name}:{line} {name}  x{count}  {text}")
    statements = route_statements()
    idle = sorted(key for key, (_, own) in statements.items()
                  if not any((key[0], line) in ran for line in own))
    print(f"unexecuted statements in {', '.join(ROUTE_MODULES)} "
          f"({len(idle)} of {len(statements)}, raises not counted):")
    for path, line in idle:
        text = linecache.getline(path, line).strip()
        print(f"  {Path(path).name}:{line} {statements[(path, line)][0]}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
