"""Exhaustive sweeps over all small graphs, checking solver-level theorems.

Four checks ship.  Each asks the search core `oracle._classes` only whether
a colouring exists, and builds no certificate records:

- ``equivalence``: for k | n, the colouring search must agree with a bare
  clique walk for a factor of the complement (`_clique_factor_exists`), a
  second search that shares nothing with the first.
- ``edge-bound``: when every edge has degree sum at most 2k+1, an equitable
  (k+1)-coloring must exist.
- ``dichotomy``: for k >= 3 under the 2k edge cap, every NO-instance must
  come back from the decider with a verified clique or odd-biclique witness.
- ``no-set``: over connected graphs with max degree <= k, the NO-instances
  must be exactly the complete graph on k+1 vertices plus, for odd k, the
  balanced biclique on 2k.

Labeled sweeps run the full 2^C(n,2) space (n <= 7) through one Gray-code
walk; the connected sweep runs the canonical enumeration (n <= 8).  When
more than one thread is requested, each layer splits into contiguous ranges
of Gray-code indices, and worker processes walk one range each.

The process pool's module is imported only when a layer is split, and numpy
only by the connected sweep's canonical form (see `smallgraphs`), so
importing this module, as the package does, loads neither.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .decide import decide_equitable
from .errors import PreconditionError
from .extremal import BicliqueObstruction, CliqueObstruction
from .graphs import Graph, complement, connected_components
from .oracle import _classes
from .smallgraphs import (
    MAX_CANONICAL_N,
    connected_graphs,
    graph_from_pair_mask,
    iter_labeled_graphs_inplace,
    labeled_graph_count,
)

LABELED_CAP = 7
CONNECTED_CAP = MAX_CANONICAL_N
CHECKS = ("equivalence", "edge-bound", "dichotomy", "no-set")
ANOMALY_LIMIT = 100

Tally = Tuple[int, int, int, List[str]]


class SweepReport(NamedTuple):
    """Outcome of one sweep: instance counts plus any anomalies (expected none)."""

    check: str
    enumeration: str
    n_max: int
    instances: int
    no_instances: int
    witnesses: int
    anomalies: Tuple[str, ...]
    wall_seconds: float

    @property
    def clean(self) -> bool:
        return not self.anomalies

    def to_json(self) -> dict:
        return {
            "schema": "equitiler.sweep/1",
            "check": self.check,
            "enumeration": self.enumeration,
            "n_max": self.n_max,
            "instances": self.instances,
            "no_instances": self.no_instances,
            "witnesses": self.witnesses,
            "anomalies": list(self.anomalies),
            "wall_seconds": round(self.wall_seconds, 3),
        }


def resolve_threads(threads: Optional[int]) -> int:
    """The worker count: `threads`, or 1 when it is None."""
    if threads is None:
        return 1
    if threads < 1:
        raise PreconditionError(f"thread count must be positive, got {threads}")
    return threads


def _edges_repr(g: Graph) -> str:
    return str(list(g.edges()))


def _clique_factor_exists(adj: List[int], rest: int, r: int) -> bool:
    """Whether the vertices of `rest` split into r-cliques of the graph with
    rows `adj`.

    The reference for the equivalence check: the lowest vertex of `rest`
    joins each r-clique through it in turn, in lexicographic order, and the
    walk recurses on what is left.  It prunes nothing and shares no code
    with the colouring search.
    """
    if not rest:
        return True
    low = rest & -rest
    rest ^= low
    return _grow_clique(adj, rest, r - 1, rest & adj[low.bit_length() - 1], r)


def _grow_clique(adj: List[int], rest: int, need: int, cand: int, r: int) -> bool:
    """Whether `need` more vertices of `cand`, the uncovered common
    neighbours above the clique so far, complete it into a factor of `rest`."""
    if not need:
        return _clique_factor_exists(adj, rest, r)
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        if _grow_clique(adj, rest ^ low, need - 1, cand & adj[low.bit_length() - 1], r):
            return True
    return False


def _tally_equivalence(g: Graph) -> Tally:
    inst = nos = 0
    bad: List[str] = []
    gc = complement(g)
    for k in range(1, g.n + 1):
        if g.n % k:
            continue
        inst += 1
        col = _classes(g.adj, g.full_mask, k)
        fac = _clique_factor_exists(gc.adj, gc.full_mask, g.n // k)
        if col is None:
            nos += 1
        if (col is None) == fac:
            side = "coloring absent" if col is None else "coloring present"
            other = "factor present" if fac else "factor absent"
            bad.append(f"n={g.n} k={k}: {side} but complement {other}; edges={_edges_repr(g)}")
    return inst, nos, 0, bad


def _worst_edge_sum(g: Graph) -> int:
    """The largest d(x)+d(y) over the edges xy of g, 0 if it has none."""
    degs = g.degrees()
    worst = 0
    for du, row in zip(degs, g.adj):
        while row:
            low = row & -row
            s = du + degs[low.bit_length() - 1]
            if s > worst:
                worst = s
            row ^= low
    return worst


def _tally_edge_bound(g: Graph) -> Tally:
    worst = _worst_edge_sum(g)
    inst = fails = 0
    bad: List[str] = []
    for k in range(1, g.n + 1):
        if 2 * k + 1 < worst:
            continue
        inst += 1
        if _classes(g.adj, g.full_mask, k + 1) is None:
            fails += 1
            bad.append(f"n={g.n} k={k}: edge sums <= {2 * k + 1} but no (k+1)-coloring; edges={_edges_repr(g)}")
    return inst, fails, 0, bad


def _tally_dichotomy(g: Graph) -> Tally:
    inst = nos = wits = 0
    bad: List[str] = []
    worst = _worst_edge_sum(g)
    for k in range(3, g.n + 1):
        if worst > 2 * k:
            continue
        inst += 1
        if _classes(g.adj, g.full_mask, k) is not None:
            continue
        nos += 1
        cert = decide_equitable(g, k)
        if cert.answer is not False:
            bad.append(f"n={g.n} k={k}: decider answered {cert.answer} on a NO-instance; edges={_edges_repr(g)}")
        elif (
            cert.kind == "obstructed"
            and cert.verified
            and isinstance(cert.witness, (CliqueObstruction, BicliqueObstruction))
        ):
            wits += 1
        else:
            bad.append(
                f"n={g.n} k={k}: NO-instance without a subgraph witness"
                f" (kind={cert.kind}); edges={_edges_repr(g)}"
            )
    return inst, nos, wits, bad


_LABELED = {
    "equivalence": _tally_equivalence,
    "edge-bound": _tally_edge_bound,
    "dichotomy": _tally_dichotomy,
}


def _sum(tallies: Iterable[Tally]) -> Tally:
    inst = nos = wits = 0
    bad: List[str] = []
    for i, o, w, b in tallies:
        inst += i
        nos += o
        wits += w
        bad.extend(b)
    return inst, nos, wits, bad


def _labeled_range_tally(args: Tuple[str, int, int, int]) -> Tally:
    """Worker over one contiguous range [lo, hi) of Gray-code indices."""
    check, n, lo, hi = args
    fn = _LABELED[check]
    return _sum(fn(g) for _, g in iter_labeled_graphs_inplace(n, lo, hi))


def _labeled_layer(check: str, n: int, threads: int) -> Tally:
    total = labeled_graph_count(n)
    if threads == 1 or total < 4 * threads:
        return _labeled_range_tally((check, n, 0, total))
    from concurrent.futures import ProcessPoolExecutor

    step = -(-total // threads)
    jobs = [(check, n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return _sum(pool.map(_labeled_range_tally, jobs))


def _is_expected_no(g: Graph, k: int) -> bool:
    """Member of the predicted NO-list: K_{k+1}, or K_{k,k} for odd k."""
    if g.n == k + 1 and g.is_clique(g.full_mask):
        return True
    if k % 2 and g.n == 2 * k:
        gc = complement(g)
        parts = list(connected_components(gc))
        return len(parts) == 2 and all(len(p) == k and gc.is_clique(p.bits) for p in parts)
    return False


def _sweep_no_set(n_max: int) -> Tally:
    inst = nos = wits = 0
    bad: List[str] = []
    found: Dict[int, int] = {k: 0 for k in range(3, n_max + 1)}
    for n in range(1, n_max + 1):
        for mask in connected_graphs(n):
            g = graph_from_pair_mask(n, mask)
            dmax = max(g.degrees(), default=0)
            for k in range(3, n_max + 1):
                if dmax > k:
                    continue
                inst += 1
                if _classes(g.adj, g.full_mask, k) is not None:
                    continue
                nos += 1
                if _is_expected_no(g, k):
                    wits += 1
                    found[k] += 1
                else:
                    bad.append(f"unexpected NO at n={n} k={k}: edges={_edges_repr(g)}")
    for k in range(3, n_max + 1):
        want = (1 if k + 1 <= n_max else 0) + (1 if k % 2 and 2 * k <= n_max else 0)
        if found[k] != want:
            bad.append(f"NO-list at k={k} holds {found[k]} of {want} predicted members")
    return inst, nos, wits, bad


def sweep(n_max: int, check: str = "equivalence", threads: Optional[int] = None) -> SweepReport:
    """Run one exhaustive check up to n_max; see the module docstring for names."""
    if check not in CHECKS:
        raise PreconditionError(f"unknown check {check!r}; choose from {', '.join(CHECKS)}")
    workers = resolve_threads(threads)
    start = time.perf_counter()
    if check == "no-set":
        if not 1 <= n_max <= CONNECTED_CAP:
            raise PreconditionError(f"connected sweep needs 1 <= n_max <= {CONNECTED_CAP}")
        enumeration = "connected"
        inst, nos, wits, bad = _sweep_no_set(n_max)
    else:
        if not 1 <= n_max <= LABELED_CAP:
            raise PreconditionError(f"labeled sweep needs 1 <= n_max <= {LABELED_CAP}")
        enumeration = "labeled"
        inst, nos, wits, bad = _sum(
            _labeled_layer(check, n, workers) for n in range(1, n_max + 1)
        )
    bad.sort()
    if len(bad) > ANOMALY_LIMIT:
        bad = bad[:ANOMALY_LIMIT] + [f"... {len(bad) - ANOMALY_LIMIT} further anomalies suppressed"]
    return SweepReport(
        check=check,
        enumeration=enumeration,
        n_max=n_max,
        instances=inst,
        no_instances=nos,
        witnesses=wits,
        anomalies=tuple(bad),
        wall_seconds=time.perf_counter() - start,
    )
