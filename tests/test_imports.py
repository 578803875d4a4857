"""What the package imports: numpy stays off every path but the connected
sweep's canonical form, and no module keeps an import, a private helper or
a record field that nothing uses.

Each numpy check runs in a fresh interpreter, because this test process has
usually loaded numpy already.  The orphan check reads the source with `ast`.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import equitiler

SRC = str(Path(equitiler.__file__).resolve().parent.parent)

# Runs `python -m equitiler.cli` once per argument list in argv[1] (a JSON
# list of lists), in one interpreter that imported the package first, and
# reports each exit status and whether numpy was loaded.
CLI_PROBE = """
import json, runpy, sys
import equitiler

statuses = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["equitiler.cli", *argv]
    try:
        runpy.run_module("equitiler.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        statuses.append(exc.code)
print(json.dumps({"statuses": statuses, "numpy": "numpy" in sys.modules}))
"""

SWEEP_PROBE = """
import json, sys
from equitiler import sweep

out = []
for check in ("equivalence", "no-set"):
    r = sweep(5, check)
    out.append([r.instances, r.no_instances, r.witnesses, r.clean, "numpy" in sys.modules])
print(json.dumps(out))
"""


def probe(code: str, *args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_paths_leave_numpy_unloaded(tmp_path):
    names = ("ore.txt", "gnp.txt", "cert.json", "out.json")
    ore, gnp, cert, out = (str(tmp_path / name) for name in names)
    commands = [
        ["gen", "--family", "random-ore", "--n", "60", "--r", "3", "--alpha", "0", "--out", ore],
        ["factor", "--r", "3", ore, "--out", cert],
        ["verify", ore, cert, "--out", out],
        ["gen", "--family", "random-gnp", "--n", "30", "--p", "0.2", "--out", gnp],
        ["decide", "--k", "6", gnp, "--out", out],
    ]
    got = probe(CLI_PROBE, json.dumps(commands))
    # Every answer is a YES (exit 0), and nothing on the way imported numpy.
    assert got == {"statuses": [0] * len(commands), "numpy": False}


def test_only_the_connected_sweep_loads_numpy():
    # The labeled sweep walks Gray codes and needs no canonical form; the
    # connected sweep's canonical batch imports numpy on its first call.
    # Counts as pinned in test_sweep.py and benchmarks/expected.json.
    assert probe(SWEEP_PROBE) == [
        [2261, 1121, 0, True, False],
        [82, 2, 2, True, True],
    ]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs one cheap CLI command and reports the BLAS thread variables after it.
BLAS_PROBE = """
import json, os, sys
from equitiler.cli import main

main(["gen", "--family", "random-gnp", "--n", "5", "--p", "0.5", "--out", sys.argv[1]])
print(json.dumps([os.environ.get(v) for v in sys.argv[2:]]))
"""


def test_cli_pins_blas_threads_unless_set(tmp_path, monkeypatch):
    # The CLI sets each variable to one thread before numpy can load, and
    # keeps any value the caller set.
    for var in BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    out = str(tmp_path / "g.txt")
    assert probe(BLAS_PROBE, out, *BLAS_THREADS) == ["1", "1", "1"]
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert probe(BLAS_PROBE, out, *BLAS_THREADS) == ["1", "2", "1"]


# Lists the modules of interest loaded by `import equitiler`, and the classes
# defined in equitiler's modules that carry dataclass fields.
IMPORT_PROBE = """
import inspect, json, sys
import equitiler

classes = sorted(
    f"{mod.__name__}.{name}"
    for mod in list(sys.modules.values())
    if mod is not None and mod.__name__.startswith("equitiler")
    for name, obj in vars(mod).items()
    if inspect.isclass(obj) and obj.__module__ == mod.__name__
    and hasattr(obj, "__dataclass_fields__")
)
loaded = [m for m in ("numpy", "concurrent.futures", "heapq") if m in sys.modules]
print(json.dumps({"loaded": loaded, "dataclasses": classes}))
"""


def test_import_loads_no_heavy_modules_and_one_dataclass():
    # The records are NamedTuples, which generate no code at import;
    # ConstantsConfig stays a dataclass for `dataclasses.replace`.  heapq is
    # imported by random_ore when it runs, not by the package.
    assert probe(IMPORT_PROBE) == {
        "loaded": [],
        "dataclasses": ["equitiler.constants.ConstantsConfig"],
    }


def _names(tree: ast.AST):
    """Every name a tree reads: plain names, attribute names and names
    taken by a from-import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _exported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _fields(node: ast.ClassDef):
    """The fields of a NamedTuple class: its annotated class-level names."""
    if not any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
        return
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id


def orphans(package: Path):
    """Module-level imports a module never uses and does not export,
    module-level private functions and classes no module of the package
    references outside their own body, and NamedTuple fields no module of
    the package reads as an attribute, as "module: name" strings."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    everywhere = Counter()
    read = set()
    for tree in trees.values():
        everywhere.update(_names(tree))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        used = Counter(_names(tree))
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    # A from-import also counts itself among the names read.
                    own = alias.name == bound and isinstance(node, ast.ImportFrom)
                    if used[bound] - own == 0 and bound not in exported:
                        found.append(f"{name}: import {bound}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(node, ast.ClassDef):
                    found.extend(f"{name}: field {node.name}.{field}"
                                 for field in _fields(node) if field not in read)
                if not node.name.startswith("_") or node.name.startswith("__"):
                    continue
                if everywhere[node.name] == Counter(_names(node))[node.name]:
                    found.append(f"{name}: def {node.name}")
    return found


def test_no_orphan_imports_or_private_helpers():
    # A deletion that leaves an import, a private helper or a record field
    # behind fails here.
    assert orphans(Path(SRC) / "equitiler") == []


def importers(package: Path, module: str):
    """The files of the package with a relative from-import of `module`."""
    return [path.name for path in sorted(package.glob("*.py"))
            if any(isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
                   for node in ast.walk(ast.parse(path.read_text())))]


def test_only_the_package_root_imports_absorbing():
    # No decision runs absorption, so decide.py and every other module do
    # without absorbing.py; only the package root re-exports it.
    assert importers(Path(SRC) / "equitiler", "absorbing") == ["__init__.py"]


# The structured route (partition.py, tiling.py) answers YES or misses: it
# may search for a sparse part and build tilings, but it holds no witness
# type of a NO and no exact search.
ROUTE_MAY_IMPORT = {
    "extremal": {"EXACT_LIMIT", "_independent_heuristic", "independent_set_of_size"},
    "oracle": {"Tiling"},
}


def route_imports(package: Path):
    """Each name that partition.py or tiling.py imports, at any depth, from
    a module of ROUTE_MAY_IMPORT beyond the names it lists, or the module
    itself, as "file: module.name" strings."""
    found = []
    for name in ("partition.py", "tiling.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is None:
                found.extend(f"{name}: {a.name}" for a in node.names if a.name in ROUTE_MAY_IMPORT)
            elif node.module in ROUTE_MAY_IMPORT:
                allowed = ROUTE_MAY_IMPORT[node.module]
                found.extend(f"{name}: {node.module}.{a.name}" for a in node.names
                             if a.name not in allowed)
    return found


def test_structured_route_imports_no_witness_or_exact_search():
    assert route_imports(Path(SRC) / "equitiler") == []


def test_orphan_check_sees_a_planted_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "import os\nfrom math import sqrt\n\n\n"
        "def _helper():\n    return _helper()\n\n\n"
        "def _used():\n    return sqrt(2)\n\n\n"
        "def api():\n    return _used()\n"
    )
    assert orphans(package) == ["mod.py: import os", "mod.py: def _helper"]


def test_orphan_check_sees_a_planted_field(tmp_path):
    # A field counts as read when any module of the package loads it as an
    # attribute; one that is only written, by position or by keyword, is an
    # orphan.  Plain classes' annotations are not fields.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "rec.py").write_text(
        "from typing import NamedTuple\n\n\n"
        "class Rec(NamedTuple):\n    kept: int\n    unread: int\n    written: int\n\n\n"
        "class Plain:\n    note: int\n\n\n"
        "def make():\n    return Rec(1, 2, written=3)\n"
    )
    (package / "use.py").write_text(
        "from .rec import make\n\n\n"
        "def api():\n    return make().kept\n"
    )
    assert orphans(package) == ["rec.py: field Rec.unread", "rec.py: field Rec.written"]


# The checker in certificates.py trusts nothing of the solver but its record
# types: from these modules it may load only the names listed.
CHECKER_MAY_LOAD = {
    "graphs": {"Graph", "VertexSet"},
    "extremal": {"Ex1Witness", "Ex2Witness", "CliqueObstruction", "BicliqueObstruction"},
    "matching": {"TutteBarrier"},
    "oracle": {"Tiling", "Coloring"},
}


def _defined(tree: ast.Module):
    """The names a module defines: its top-level functions, classes and
    assigned names, and the methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _loads(node: ast.AST):
    """The names a function loads that it does not bind itself, and every
    attribute name it reads."""
    bound = {a.arg for a in ast.walk(node) if isinstance(a, ast.arg)}
    bound |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in bound:
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def checker_leaks(package: Path):
    """Each name of graphs.py, extremal.py, matching.py or oracle.py, beyond
    CHECKER_MAY_LOAD, that certificates.py imports or that a function
    `verify_certificate` reaches loads, as "function: module.name" strings.
    A function is reached through the names it loads, a module-level table
    through the names in it."""
    tree = ast.parse((package / "certificates.py").read_text())
    nodes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    nodes.update((t.id, node) for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name))
    reached, todo = set(), ["verify_certificate"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in _loads(nodes[name]) if n in nodes)
    found = []
    for module, allowed in CHECKER_MAY_LOAD.items():
        foreign = set(_defined(ast.parse((package / f"{module}.py").read_text()))) - allowed
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == module:
                found.extend(f"import: {module}.{a.name}" for a in node.names if a.name not in allowed)
        for name in sorted(reached):
            found.extend(f"{name}: {module}.{n}" for n in sorted(set(_loads(nodes[name])) & foreign))
    return found


def test_checker_loads_only_record_types():
    # The checks read g.n, g.adj and the payload's masks, so a rewrite of
    # the solver's fast paths cannot change what `verify` accepts.
    assert checker_leaks(Path(SRC) / "equitiler") == []


def test_checker_rule_sees_a_planted_call(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "graphs.py").write_text(
        "class Graph:\n    def is_clique(self, mask):\n        return True\n\n\n"
        "def iter_bits(mask):\n    return []\n"
    )
    (package / "extremal.py").write_text("class Ex1Witness:\n    pass\n")
    (package / "matching.py").write_text("class TutteBarrier:\n    def surplus(self, g):\n        return 0\n")
    (package / "oracle.py").write_text("class Tiling:\n    pass\n")
    (package / "certificates.py").write_text(
        "from .graphs import Graph, iter_bits\n\n"
        "_TABLE = {1: lambda g, w: w.surplus(g)}\n\n\n"
        "def _check(g, mask):\n    return g.is_clique(mask)\n\n\n"
        "def _codec(mask):\n    return list(iter_bits(mask))\n\n\n"
        "def verify_certificate(g, mask):\n    return _check(g, mask) and _TABLE\n"
    )
    assert checker_leaks(package) == [
        "import: graphs.iter_bits",
        "_check: graphs.is_clique",
        "_TABLE: matching.surplus",
    ]
