"""Per-layer tracing from outside the package.

Each listed public function is wrapped in the namespace where its callers
look it up (every ``equitiler`` module that imported it by name, plus the
``Graph`` class for ``induced``).  A wrapped call records a span: name,
start, end, the enclosing span and the benchmark operation it belongs to.
Calls, self time (span minus child spans) and busy time (outermost spans
only, so recursion is not counted twice) are aggregated as the spans close;
the spans themselves stay in memory and are written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

from equitiler.graphs import Graph

LAYERS: Dict[str, Tuple[str, ...]] = {
    "graphs": ("induced", "sigma", "complement", "find_clique_of_size", "max_clique"),
    "matching": ("maximum_matching", "covering_matching", "pm_or_structure"),
    "extremal": ("recognize_extremal", "independent_set_of_size", "find_biclique"),
    "partition": ("peel_partition", "refine_to_good", "classify"),
    "tiling": (
        "cover_exceptional", "cover_nonexcellent", "extend_base",
        "parity_repair", "contract_residual", "multipartite_factor",
    ),
    "absorbing": ("build_absorbing_set", "layered_greedy", "absorb"),
    "oracle": ("kr_factor_exact", "equitable_coloring_exact"),
    "decide": ("pad_to_divisible", "lift_coloring", "coloring_obstruction"),
    "generators": ("random_gnp", "random_ore"),
}

# The enumerators the sweeps pull graphs from; only the time spent producing
# each graph is counted, as `smallgraphs.enumerate`.
ENUMERATORS = ("iter_labeled_graphs_inplace", "connected_graphs")

# Spans kept for the dump; beyond this the sweep's millions of tiny calls
# are aggregated but not stored.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.busy_s: List[float] = []
        self.raised: List[int] = []
        self.enum_calls = 0
        self.enum_s = 0.0
        self.op = -1
        self._active: List[int] = []
        self._stack: List[list] = []
        self._next_id = 0
        self.spans = array("d")  # id, parent, name, op, start, end per span
        self.dropped = 0
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        idx = len(self.names)
        for col, zero in ((self.names, name), (self.calls, 0), (self.self_s, 0.0),
                          (self.busy_s, 0.0), (self.raised, 0), (self._active, 0)):
            col.append(zero)
        stack, clock, spans = self._stack, time.perf_counter, self.spans
        calls, self_s, busy_s, active = self.calls, self.self_s, self.busy_s, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            active[idx] += 1
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                active[idx] -= 1
                if not active[idx]:
                    busy_s[idx] += dur
                if not ok:
                    self.raised[idx] += 1
                if parent is not None:
                    parent[1] += dur
                if len(spans) < 6 * SPAN_CAP:
                    spans.extend((span_id, -1 if parent is None else parent[0],
                                  idx, self.op, start, end))
                else:
                    self.dropped += 1

        return traced

    def _enumerator(self, fn, generator: bool):
        clock = time.perf_counter

        def timed_call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.enum_calls += 1
                self.enum_s += clock() - t0

        def timed_iter(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    self.enum_s += clock() - t0
                    return
                self.enum_s += clock() - t0
                self.enum_calls += 1
                yield item

        return functools.wraps(fn)(timed_iter if generator else timed_call)

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "equitiler" or name.startswith("equitiler.")]
        for layer, fns in LAYERS.items():
            for fn_name in fns:
                if (layer, fn_name) == ("graphs", "induced"):
                    orig = Graph.__dict__["induced"]
                    self._patch(Graph, "induced", orig, self.wrap("graphs.induced", orig))
                    continue
                orig = getattr(sys.modules[f"equitiler.{layer}"], fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, orig, wrapped)
        sweep_mod = sys.modules["equitiler.sweep"]
        for fn_name in ENUMERATORS:
            orig = getattr(sweep_mod, fn_name)
            wrapped = self._enumerator(orig, generator=fn_name.startswith("iter_"))
            self._patch(sweep_mod, fn_name, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def snapshot(self) -> Dict[str, float]:
        """Aggregates so far, keyed `<layer>.<function>.<calls|self_s|busy_s>`."""
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.busy_s"] = self.busy_s[i]
            out[f"{name}.raised"] = self.raised[i]
        out["smallgraphs.enumerate.calls"] = self.enum_calls
        out["smallgraphs.enumerate.self_s"] = self.enum_s
        return out

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        rows = [
            [int(spans[i]), int(spans[i + 1]), self.names[int(spans[i + 2])],
             int(spans[i + 3]), spans[i + 4], spans[i + 5]]
            for i in range(0, len(spans), 6)
        ]
        doc = {**meta, "fields": ["id", "parent", "name", "op", "start_s", "end_s"],
               "dropped": self.dropped, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))
