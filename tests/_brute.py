"""Independent reference implementations used to check the package.

Everything here works on plain edge sets / frozensets via itertools, with no
code shared with equitiler's bitset internals.  Exponential and meant for
small instances only.  The exception is the last section: earlier versions of
kernels that were since rewritten for speed, kept verbatim so that the tests
can require the rewrites to give identical output.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from equitiler.graphs import VertexSet
from equitiler.matching import Matching, _augment_once

Edge = Tuple[int, int]


def norm_edges(edges: Iterable[Edge]) -> FrozenSet[Edge]:
    return frozenset((min(u, v), max(u, v)) for u, v in edges)


def adj_sets(n: int, edges: Iterable[Edge]) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def graph_edges(g) -> FrozenSet[Edge]:
    """Edge set of an equitiler Graph, via its public iterator only."""
    return norm_edges(g.edges())


def brute_induced(n: int, edges: Iterable[Edge], mask: int) -> Tuple[int, FrozenSet[Edge], List[int]]:
    """Vertex count, edge set and old labels of the subgraph induced by `mask`,
    by relabelling the edges with both ends inside it."""
    labels = [v for v in range(n) if (mask >> v) & 1]
    pos = {v: i for i, v in enumerate(labels)}
    inside = ((pos[u], pos[v]) for u, v in edges if u in pos and v in pos)
    return len(labels), norm_edges(inside), labels


def is_clique_set(adj: Sequence[Set[int]], vs: Iterable[int]) -> bool:
    vs = list(vs)
    return all(b in adj[a] for a, b in itertools.combinations(vs, 2))


def is_independent_set(adj: Sequence[Set[int]], vs: Iterable[int]) -> bool:
    vs = list(vs)
    return not any(b in adj[a] for a, b in itertools.combinations(vs, 2))


def brute_sigma(n: int, edges: Iterable[Edge]):
    adj = adj_sets(n, edges)
    degs = [len(a) for a in adj]
    vals = [
        degs[u] + degs[v]
        for u, v in itertools.combinations(range(n), 2)
        if v not in adj[u]
    ]
    return min(vals) if vals else None  # None for complete graphs


def brute_independence_number(n: int, edges: Iterable[Edge]) -> int:
    adj = adj_sets(n, edges)
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(n), size):
            if is_independent_set(adj, combo):
                best = size
                break
    return best


def brute_max_matching_size(n: int, edges: Iterable[Edge]) -> int:
    es = sorted(norm_edges(edges))

    @lru_cache(maxsize=None)
    def go(used: FrozenSet[int], idx: int) -> int:
        best = 0
        for i in range(idx, len(es)):
            u, v = es[i]
            if u in used or v in used:
                continue
            best = max(best, 1 + go(used | {u, v}, i + 1))
        return best

    out = go(frozenset(), 0)
    go.cache_clear()
    return out


def brute_kr_factor_exists(n: int, edges: Iterable[Edge], r: int) -> bool:
    if n % r != 0:
        raise ValueError("r must divide n")
    adj = adj_sets(n, edges)

    def go(remaining: FrozenSet[int]) -> bool:
        if not remaining:
            return True
        v = min(remaining)
        rest = sorted(remaining - {v})
        for combo in itertools.combinations(rest, r - 1):
            if all(u in adj[v] for u in combo) and is_clique_set(adj, combo):
                if go(remaining - {v} - set(combo)):
                    return True
        return False

    return go(frozenset(range(n)))


def brute_equitable_colorable(n: int, edges: Iterable[Edge], k: int) -> bool:
    if k >= n:
        return True
    adj = adj_sets(n, edges)
    big = n % k
    sizes = [n // k + 1] * big + [n // k] * (k - big)

    def go(v: int, classes: List[Set[int]]) -> bool:
        if v == n:
            return True
        tried_fresh = set()
        for ci, cls in enumerate(classes):
            if len(cls) >= sizes[ci]:
                continue
            if not cls:
                if sizes[ci] in tried_fresh:
                    continue
                tried_fresh.add(sizes[ci])
            if any(u in adj[v] for u in cls):
                continue
            cls.add(v)
            if go(v + 1, classes):
                return True
            cls.remove(v)
        return False

    return go(0, [set() for _ in range(k)])


def brute_layered_profile(n: int, edges: Iterable[Edge], r: int) -> Tuple[int, ...]:
    """Lexicographically best (count of size-r pieces, ..., size-1 pieces)
    over all partitions of the vertices into cliques of size at most r."""
    adj = adj_sets(n, edges)
    best: List[Optional[Tuple[int, ...]]] = [None]

    def go(remaining: FrozenSet[int], counts: List[int]) -> None:
        if not remaining:
            prof = tuple(counts)
            if best[0] is None or prof > best[0]:
                best[0] = prof
            return
        v = min(remaining)
        rest = sorted(remaining - {v})
        for size in range(min(r, len(remaining)), 0, -1):
            for combo in itertools.combinations(rest, size - 1):
                piece = (v,) + combo
                if is_clique_set(adj, piece):
                    counts[r - size] += 1
                    go(remaining - set(piece), counts)
                    counts[r - size] -= 1

    go(frozenset(range(n)), [0] * r)
    assert best[0] is not None
    return best[0]


def brute_count_absorbers(n: int, edges: Iterable[Edge], q: Sequence[int], r: int) -> int:
    pool = [v for v in range(n) if v not in set(q)]
    es = norm_edges(edges)
    count = 0
    for s in itertools.combinations(pool, r * r):
        sub = [e for e in es if e[0] in s and e[1] in s]
        if not brute_kr_factor_exists_relabel(list(s), sub, r):
            continue
        both = sorted(set(s) | set(q))
        sub2 = [e for e in es if e[0] in both and e[1] in both]
        if brute_kr_factor_exists_relabel(both, sub2, r):
            count += 1
    return count


def brute_kr_factor_exists_relabel(vertices: Sequence[int], edges: Iterable[Edge], r: int) -> bool:
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    es = [(pos[u], pos[v]) for u, v in edges]
    return brute_kr_factor_exists(len(vertices), es, r)


def random_edge_set(rng, n: int, p: float) -> Set[Edge]:
    return {
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    }


def brute_covering_matching_exists(
    n: int, edges: Iterable[Edge], x: Sequence[int], d: int
) -> bool:
    es = sorted(norm_edges(edges))
    xs = set(x)
    for combo in itertools.combinations(es, d):
        used: Set[int] = set()
        ok = True
        for u, v in combo:
            if u in used or v in used:
                ok = False
                break
            used.update((u, v))
        if ok and xs <= used:
            return True
    return False


def has_biclique(n: int, edges: Iterable[Edge], a: int, b: int) -> bool:
    adj = adj_sets(n, edges)
    for left in itertools.combinations(range(n), a):
        common = set(range(n)) - set(left)
        for v in left:
            common &= adj[v]
        if len(common) >= b:
            return True
    return False


# ---------------------------------------------------------------------------
# Earlier kernel versions, verbatim apart from their names.


def seed_independent_heuristic(g, target: int):
    """extremal._independent_heuristic before the plateau swap went linear."""
    # Greedy by ascending degree with one round of plateau swaps.
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    chosen = 0
    for v in order:
        if not (g.adj[v] & chosen):
            chosen |= 1 << v
    if chosen.bit_count() >= target:
        return VertexSet(chosen)
    for v in order:
        if (chosen >> v) & 1:
            continue
        conflicts = g.adj[v] & chosen
        if conflicts.bit_count() == 1:
            w = conflicts.bit_length() - 1
            trial = (chosen & ~conflicts) | (1 << v)
            # accept only if the swap frees room for an extra vertex
            for u in order:
                if not ((trial >> u) & 1) and not (g.adj[u] & trial):
                    trial |= 1 << u
            if trial.bit_count() > chosen.bit_count():
                chosen = trial
        if chosen.bit_count() >= target:
            return VertexSet(chosen)
    return None


def seed_maximum_matching(g):
    """matching.maximum_matching with its quadratic greedy seed."""
    match = [-1] * g.n
    # Greedy seed, then one augmentation pass per remaining exposed vertex.
    for v in range(g.n):
        if match[v] == -1:
            free = g.adj[v] & ~_covered_bits(match)
            if free:
                u = (free & -free).bit_length() - 1
                match[v] = u
                match[u] = v
    for v in range(g.n):
        if match[v] == -1:
            _augment_once(g, match, v)
    return Matching.from_array(match)


def _covered_bits(match: List[int]) -> int:
    bits = 0
    for v, m in enumerate(match):
        if m != -1:
            bits |= 1 << v
    return bits
