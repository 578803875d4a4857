"""Reach of the drawn decisions: package functions no drawn input calls,
and the raise sites that fire.

    python tests/reach.py

Builds the structured, dense and exact cases of `benchmarks/corpus.py`
and the scoreboard inputs of `tests/test_regime.py`, then decides each
one under `sys.setprofile`.  Only the decisions are profiled, not the
building of their inputs.  The report has two lists:

- every function of the package (a `def`, not a lambda, a comprehension
  or a class body) whose code no decision started, with its line span;
- every raise statement of the package that ended a frame, with the number
  of times it did.  A raise caught inside its own frame is not seen.

Exceptions that a route turns into a miss note are counted like any
other.  The script exits 0 whatever it finds: the lists are a report for a
reader deciding which branch a drawn input should reach or which code
should leave the package, not a gate.
"""

from __future__ import annotations

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


def drawn_inputs() -> List[Tuple[str, object, int, object]]:
    """(mode, graph, r or k, constants) of the 135 corpus and 174
    scoreboard decisions."""
    import corpus
    import test_regime

    out = []
    workloads = corpus.workloads()
    for name in ("structured", "dense", "exact"):
        out += [(c.mode, c.build(), c.value, c.cfg) for c in workloads[name].cases]
    for name in sorted(test_regime.FAMILIES):
        out += [(mode, g, value, None) for g, mode, value in test_regime.FAMILIES[name][0]()]
    return out


def trace(inputs) -> Tuple[Set[CodeType], Counter]:
    """The code objects the decisions start, and the (file, line, function)
    of each raise that ends a frame, counted."""
    started: Set[CodeType] = set()
    raised: Counter = Counter()
    prefix = str(Path(equitiler.__file__).parent)
    opcodes: Dict[CodeType, bytes] = {}

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
        try:
            decide(g, value, cfg=cfg)
        finally:
            sys.setprofile(None)
    return started, raised


def main() -> int:
    functions = package_functions()
    inputs = drawn_inputs()
    started, raised = trace(inputs)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
