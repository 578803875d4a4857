"""Independent reference implementations used to check the package.

Everything here works on plain edge sets / frozensets via itertools, with no
code shared with equitiler's bitset internals.  Exponential and meant for
small instances only.  The exceptions are the later sections: exact
oracles that only the tests need, built on the package's exact search and on
an earlier clique enumerator, and earlier versions of kernels that were since
rewritten, kept verbatim so that the tests can require the rewrites to give
identical output.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from equitiler.absorbing import (
    AbsorbingSet,
    LayeredFactor,
    _profile,
    _sample_absorbers,
    _sigma_gate,
    find_augmentation,
)
from equitiler.certificates import clique_tiles_cover, odd_split_holds, tiling_holds
from equitiler.constants import ConstantsConfig, default_constants
from equitiler.errors import InternalContradiction, PreconditionError
from equitiler.extremal import Ex2Witness, independent_set_of_size
from equitiler.graphs import (
    Graph,
    OreStats,
    VertexSet,
    _clique_walk,
    _degree_levels,
    as_fraction,
    complement,
    connected_components,
    find_clique_of_size,
    induced_edge_count,
    iter_bits,
    low_degree_set,
    lowest_vertices,
    max_independent_set,
    sigma,
)
from equitiler.matching import Matching, TutteBarrier, _augment_once, maximum_matching
from equitiler.oracle import (
    Coloring,
    Rows,
    Tiling,
    _backtrack,
    _claim,
    _class_profile,
    _covers,
    kr_factor_exact,
)
from equitiler.partition import (
    GoodPartition,
    RsPartition,
    VertexClassification,
    _check_thin_spread,
    _grade_thresholds,
    _sparse_set,
    _violations,
    classify,
    slack_threshold,
)
from equitiler.smallgraphs import MAX_CANONICAL_N, _canonical_batch, _perm_pow_table
from equitiler.tiling import Base, base_slack

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


def brute_complement(n: int, edges: Iterable[Edge]) -> FrozenSet[Edge]:
    """Edge set of the complement: every pair u < v that is not an edge."""
    edges = norm_edges(edges)
    return frozenset(e for e in itertools.combinations(range(n), 2) if e not in edges)


def is_clique_set(adj: Sequence[Set[int]], vs: Iterable[int]) -> bool:
    vs = list(vs)
    return all(b in adj[a] for a, b in itertools.combinations(vs, 2))


def is_independent_set(adj: Sequence[Set[int]], vs: Iterable[int]) -> bool:
    vs = list(vs)
    return not any(b in adj[a] for a, b in itertools.combinations(vs, 2))


def independent_in(g, mask: int) -> bool:
    """Whether no edge of an equitiler Graph joins two vertices of `mask`,
    by its public edge iterator."""
    return not any(mask >> u & mask >> v & 1 for u, v in g.edges())


def brute_sigma(n: int, edges: Iterable[Edge]):
    adj = adj_sets(n, edges)
    degs = [len(a) for a in adj]
    vals = [
        degs[u] + degs[v]
        for u, v in itertools.combinations(range(n), 2)
        if v not in adj[u]
    ]
    return min(vals) if vals else None  # None for complete graphs


def brute_sigma_witness(n: int, edges: Iterable[Edge]) -> Optional[Edge]:
    """The lexicographically smallest non-adjacent pair of least degree sum."""
    adj = adj_sets(n, edges)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if v not in adj[u]]
    return min(pairs, key=lambda e: (len(adj[e[0]]) + len(adj[e[1]]), e), default=None)


def brute_worst_edge(n: int, edges: Iterable[Edge]) -> Optional[Edge]:
    """The lexicographically smallest edge of greatest degree sum."""
    edges = norm_edges(edges)
    adj = adj_sets(n, edges)
    return min(edges, key=lambda e: (-len(adj[e[0]]) - len(adj[e[1]]), e), default=None)


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


def brute_odd_components(adj: Sequence[Set[int]], removed: Iterable[int]) -> int:
    """The odd components of the graph on adj's vertices once `removed`
    is taken out, by breadth-first search over sets."""
    left = set(range(len(adj))) - set(removed)
    odd = 0
    while left:
        queue = deque([left.pop()])
        size = 1
        while queue:
            near = adj[queue.popleft()] & left
            left -= near
            size += len(near)
            queue.extend(near)
        odd += size % 2
    return odd


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
# Exact oracles and structure checks used only by the tests.


def is_absorber_set(g: Graph, s_bits: int, q_bits: int, r: int) -> bool:
    """Whether S absorbs Q: both G[S] and G[S u Q] have K_r-factors."""
    if s_bits & q_bits:
        return False
    return (
        kr_factor_exact(g, r, s_bits) is not None
        and kr_factor_exact(g, r, s_bits | q_bits) is not None
    )


def count_absorbers_exact(
    g: Graph, q: VertexSet, r: int, cap: int = 64
) -> Tuple[int, Optional[Tuple[VertexSet, ...]]]:
    """Count all r^2-sets disjoint from Q that absorb Q.

    Returns (count, witnesses) with the witness list only when count <= cap.
    Full enumeration over C(n - |Q|, r^2) subsets; intended for small n.
    """
    if len(q) != r:
        raise ValueError(f"|Q|={len(q)} but r={r}")
    size = r * r
    pool = [v for v in range(g.n) if v not in q]
    if len(pool) < size:
        return 0, ()
    count = 0
    found: List[VertexSet] = []
    for combo in itertools.combinations(pool, size):
        s_bits = 0
        for v in combo:
            s_bits |= 1 << v
        if is_absorber_set(g, s_bits, q.bits, r):
            count += 1
            if count <= cap:
                found.append(VertexSet(s_bits))
    return count, (tuple(found) if count <= cap else None)


class AbsorberFamily(NamedTuple):
    """Verified absorbers for one target r-set.

    Each member S satisfies: S is disjoint from q, |S| = r*r, and both
    G[S] and G[S u q] admit K_r-factors.
    """

    q: VertexSet
    members: Tuple[VertexSet, ...]


def enumerate_absorbers(
    g: Graph,
    q: VertexSet,
    r: int,
    budget: int,
    cfg: Optional[ConstantsConfig] = None,
    seed: int = 0,
    exclude: int = 0,
) -> AbsorberFamily:
    """Sample up to `budget` verified absorbers for the r-set q with the
    package's sampler, working out its low-degree set and base placement
    from `cfg` as `build_absorbing_set` does."""
    if len(q) != r:
        raise PreconditionError(f"target has {len(q)} vertices, wants r={r}")
    if cfg is None:
        cfg = default_constants(max(r, 2))
    slow = low_degree_set(g, (1 - Fraction(1, r) - cfg.alpha) * g.n)
    exploit_clique = len(slow) > cfg.xi * g.n
    found = _sample_absorbers(g, q, r, budget, seed, exclude, slow.bits, exploit_clique)
    return AbsorberFamily(q, tuple(s for s, _ in found))


def absorber_family_problems(fam: AbsorberFamily, g: Graph, r: int) -> List[str]:
    """What is wrong with each member of `fam`: its size or a factor check."""
    out = []
    for i, s in enumerate(fam.members):
        if len(s) != r * r:
            out.append(f"member {i} has {len(s)} vertices, wants {r * r}")
        elif not is_absorber_set(g, s.bits, fam.q.bits, r):
            out.append(f"member {i} fails a factor check")
    return out


def absorbing_set_problems(aset: AbsorbingSet, g: Graph) -> List[str]:
    """What is wrong with `aset`: sizes, overlaps and stored self-factors."""
    r = aset.r
    out = []
    seen = 0
    for i, s in enumerate(aset.family):
        if len(s) != r * r:
            out.append(f"absorber {i} has the wrong size")
        if s.bits & seen:
            out.append(f"absorber {i} overlaps an earlier piece")
        seen |= s.bits
        covered = 0
        for c in aset.factors[i]:
            if len(c) != r or not g.is_clique(c.bits):
                out.append(f"stored factor of absorber {i} is broken")
                break
            covered |= c.bits
        if covered != s.bits:
            out.append(f"stored factor of absorber {i} misses vertices")
    for j, c in enumerate(aset.fixed):
        if len(c) != r or not g.is_clique(c.bits):
            out.append(f"fixed clique {j} is not a K_{r}")
        if c.bits & seen:
            out.append(f"fixed clique {j} overlaps an earlier piece")
        seen |= c.bits
    return out


def absorbing_family_for(aset: AbsorbingSet, g: Graph, q: VertexSet) -> AbsorberFamily:
    """The stored absorbers of `aset` that work for this particular r-set."""
    hits = tuple(
        s
        for s in aset.family
        if not (s.bits & q.bits) and is_absorber_set(g, s.bits, q.bits, aset.r)
    )
    return AbsorberFamily(q, hits)


def validate_good(g: Graph, q: GoodPartition) -> List[str]:
    """Re-derive every good-partition condition; returns violated clauses.

    The grades are taken afresh and compared with the ones q carries, and
    the clauses (S) and (A1)-(A4) are read on the fresh grades.  The
    package's `_violations` leaves out (A4)'s rescue clauses, which
    `_rescue_matchings` makes hold as it builds the matchings; they are read
    here (`rescue_problems`).  The decider checks every structured answer
    itself, so only the tests need this.
    """
    p = q.partition
    try:
        p.check(g.n)
    except PreconditionError as exc:
        return [f"(shape) {exc}"]
    if not p.parts:
        return ["(shape) no parts to validate"]
    thin, crowded, cls = classify(g, p, _grade_thresholds(q.constants))
    report = [
        f"(grades) {name} differs from the grade at delta = {fresh.delta}"
        for name, carried, fresh in (
            ("thin", q.thin, thin),
            ("crowded", q.crowded, crowded),
            ("classification", q.classification, cls),
        )
        if carried != fresh
    ]
    fresh_q = q._replace(thin=thin, crowded=crowded, classification=cls)
    return report + _violations(g, fresh_q) + rescue_problems(g, fresh_q)


def rescue_problems(g: Graph, q: GoodPartition) -> List[str]:
    """(A4)'s rescue clauses on q's `thin` grade: one matching of G per
    part, pairwise disjoint, each covering the part's off-S thin vertices
    with edges that join one of them to a vertex of the part."""
    p = q.partition
    if len(q.rescue) != p.s:
        return [f"(A4) expected {p.s} rescue matchings, got {len(q.rescue)}"]
    report: List[str] = []
    seen = 0
    for i, part in enumerate(p.parts):
        need = q.thin.off_low(q.thin.exceptional[i])
        m = q.rescue[i]
        if not matching_holds(m, g):
            report.append(f"(A4) rescue matching {i + 1} is not a matching of G")
            continue
        cov = m.covered
        if seen & cov.bits:
            report.append(f"(A4) rescue matching {i + 1} overlaps an earlier one")
        seen |= cov.bits
        if not need.issubset(cov):
            report.append(f"(A4) rescue matching {i + 1} misses thin vertices")
        for u, v in m.pairs:
            ends = {u, v}
            if not (ends & set(need.members()) and ends & set(part.members())):
                report.append(
                    f"(A4) edge {u},{v} of rescue matching {i + 1} leaves its lane"
                )
                break
    return report


def is_base(g: Graph, q: GoodPartition, b: Base, slack) -> bool:
    """Exact check of the seed inequalities of `b` at a positive `slack`."""
    sl = base_slack(g, q, b)
    return sl is not None and 0 < slack <= sl


def seed_vertices(seeds: Sequence[Base]) -> VertexSet:
    bits = 0
    for b in seeds:
        bits |= b.vertices.bits
    return VertexSet(bits)


def base_set_problems(seeds: Sequence[Base], g: Graph, q: GoodPartition) -> List[str]:
    """What is wrong with a cover's seeds: an overlap, or a seed without a
    positive margin."""
    out = []
    seen = 0
    for k, b in enumerate(seeds):
        vb = b.vertices.bits
        if seen & vb:
            out.append(f"seed {k} overlaps an earlier seed")
        seen |= vb
        sl = base_slack(g, q, b)
        if sl is None or sl <= 0:
            out.append(f"seed {k} fails its margin check")
    return out


def gamma_independent(g: Graph, vertices: VertexSet, gamma) -> bool:
    """True iff the set induces at most gamma * n^2 edges (exact comparison)."""
    return induced_edge_count(g, vertices.bits) <= as_fraction(gamma) * g.n * g.n


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image graph under v -> perm[v]."""
    out = Graph.empty(g.n)
    for u, v in g.edges():
        out.add_edge(perm[u], perm[v])
    return out


def canonical_form(n: int, mask: int) -> int:
    """Minimum edge mask over all relabelings."""
    if n > MAX_CANONICAL_N:
        raise ValueError(f"canonical forms supported up to n={MAX_CANONICAL_N}")
    return _canonical_batch(n, [mask])[0]


def layered_factor_exact(g: Graph, r: int, cap: int = 16) -> LayeredFactor:
    """Partition V into cliques of size <= r, maximizing the size profile.

    The profile (#K_r, #K_{r-1}, ..., #K_1) is maximized lexicographically;
    memoized search over uncovered-set masks, so n is capped (default 16).
    """
    if r < 1:
        raise ValueError("r must be positive")
    if g.n > cap:
        raise ValueError(f"n={g.n} exceeds the exact layered cap {cap}")

    zero = (0,) * r
    memo: Dict[int, Tuple[int, ...]] = {0: zero}
    choice: Dict[int, Tuple[int, int]] = {}

    def bump(profile: Tuple[int, ...], piece_size: int) -> Tuple[int, ...]:
        i = r - piece_size
        return profile[:i] + (profile[i] + 1,) + profile[i + 1 :]

    def solve(mask: int) -> Tuple[int, ...]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        best: Optional[Tuple[int, ...]] = None
        best_piece = (0, 0)
        for size in range(min(r, mask.bit_count()), 0, -1):
            for c in seed_cliques_with_lowest(g, mask, size):
                prof = bump(solve(mask & ~c), size)
                if best is None or prof > best:
                    best = prof
                    best_piece = (size, c)
        assert best is not None
        memo[mask] = best
        choice[mask] = best_piece
        return best

    solve(g.full_mask)
    layers: Dict[int, List[VertexSet]] = {}
    mask = g.full_mask
    while mask:
        size, c = choice[mask]
        layers.setdefault(size, []).append(VertexSet(c))
        mask &= ~c
    return LayeredFactor(r, {s: tuple(ps) for s, ps in layers.items()})


# ---------------------------------------------------------------------------
# Earlier kernel versions, verbatim apart from their names (the quotient
# factor also drops its precondition checks).


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


def seed_masked_independent_heuristic(
    g: Graph, size: int, mask: int
) -> Optional[VertexSet]:
    """extremal._independent_heuristic before it refuted probes by degrees."""
    # Greedy by ascending degree inside the mask, stopping at `size`
    # vertices, with one round of plateau swaps when it falls short.
    order = sorted(iter_bits(mask), key=lambda v: ((g.adj[v] & mask).bit_count(), v))
    chosen = 0
    for v in order:
        if not (g.adj[v] & chosen):
            chosen |= 1 << v
            if chosen.bit_count() == size:
                return VertexSet(chosen)

    def lone(chosen: int) -> Dict[int, int]:
        # w -> mask of the unchosen vertices whose only chosen neighbor is w.
        masks: Dict[int, int] = {}
        for u in iter_bits(mask & ~chosen):
            c = g.adj[u] & chosen
            if c & (c - 1) == 0:
                w = c.bit_length() - 1
                masks[w] = masks.get(w, 0) | (1 << u)
        return masks

    # `chosen` stays maximal, so after swapping v in for its one chosen
    # neighbor w only the vertices whose lone chosen neighbor is w can join,
    # and the first of them not adjacent to v always does.  So the swap
    # gains exactly when such a vertex exists, and only then is it built.
    lone_of = lone(chosen)
    for v in order:
        if (chosen >> v) & 1:
            continue
        conflicts = g.adj[v] & chosen
        if conflicts.bit_count() == 1:
            w = conflicts.bit_length() - 1
            if lone_of[w] & ~g.adj[v] & ~(1 << v):
                trial = (chosen & ~conflicts) | (1 << v)
                for u in order:
                    if not ((trial >> u) & 1) and not (g.adj[u] & trial):
                        trial |= 1 << u
                chosen = trial
                lone_of = lone(chosen)
        if chosen.bit_count() >= size:
            return VertexSet(lowest_vertices(chosen, size))
    return None


def seed_independent_set_of_size(g: Graph, size: int) -> Optional[VertexSet]:
    """extremal.independent_set_of_size before it took a vertex mask and
    stopped its greedy pass at `size` vertices.  Its heuristic was output-equal
    to seed_independent_heuristic, which stands in for it here."""
    if size <= 0:
        return VertexSet(0)
    found = max_independent_set(g) if g.n <= 64 else seed_independent_heuristic(g, size)
    if found is None or len(found) < size:
        return None
    return VertexSet(lowest_vertices(found.bits, size))


def seed_classify(g: Graph, p: RsPartition, delta) -> VertexClassification:
    """partition.classify while it compared degrees against Fraction thresholds."""
    p.check(g.n)
    d = as_fraction(delta)
    n = g.n
    lo = d * n
    slack = (
        low_degree_set(g, slack_threshold(n, n // len(p.parts[0])))
        if p.parts
        else low_degree_set(g, slack_threshold(n, 1) if n else 0)
    )
    bad: List[VertexSet] = []
    exc: List[VertexSet] = []
    exl: List[VertexSet] = []
    full = g.full_mask
    for part in p.parts:
        m = part.bits
        hi = len(part) - lo
        b_bits = x_bits = e_bits = 0
        for v in iter_bits(m):
            if (g.adj[v] & m).bit_count() >= lo:
                b_bits |= 1 << v
        for v in iter_bits(full & ~m):
            dv = (g.adj[v] & m).bit_count()
            if dv <= lo:
                x_bits |= 1 << v
            if dv >= hi:
                e_bits |= 1 << v
        bad.append(VertexSet(b_bits))
        exc.append(VertexSet(x_bits))
        exl.append(VertexSet(e_bits))
    bm = p.b.bits
    hi_b = len(p.b) - lo
    eb = 0
    for v in iter_bits(full & ~bm):
        if (g.adj[v] & bm).bit_count() >= hi_b:
            eb |= 1 << v
    out = VertexClassification(
        partition=p,
        delta=d,
        low_degree=slack,
        bad=tuple(bad),
        exceptional=tuple(exc),
        excellent=tuple(exl),
        excellent_b=VertexSet(eb),
    )
    _check_thin_spread(g, out)
    return out


def seed_quadratic_matching(g):
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
            seed_augment_once(g, match, v)
    return Matching.from_array(match)


def _covered_bits(match: List[int]) -> int:
    bits = 0
    for v, m in enumerate(match):
        if m != -1:
            bits |= 1 << v
    return bits


def seed_greedy_match(g: Graph, inside: int) -> List[int]:
    """The greedy seed of matching.maximum_matching, as a match array: each
    exposed vertex of `inside`, ascending, takes its lowest exposed
    neighbour inside."""
    match = [-1] * g.n
    covered = 0
    for v in iter_bits(inside):
        if match[v] == -1:
            free = g.adj[v] & inside & ~covered
            if free:
                u = (free & -free).bit_length() - 1
                match[v] = u
                match[u] = v
                covered |= (1 << v) | (1 << u)
    return match


def seed_maximum_matching(g: Graph, inside: Optional[int] = None) -> Matching:
    """matching.maximum_matching before it read short augmenting paths off
    the rows: the greedy seed, then the blossom search from every vertex
    left exposed, in ascending order."""
    if inside is None:
        inside = g.full_mask
    match = seed_greedy_match(g, inside)
    for v in iter_bits(inside):
        if match[v] == -1:
            _augment_once(g, match, v, inside)
    return Matching.from_array(match)


def seed_quotient_factor(g, p, ts, retries: int = 20):
    """tiling.contract_residual and multipartite_factor while they built a
    quotient graph: each clique of `ts` contracted to one vertex, the factor
    found there and expanded back.  Preconditions are left out."""
    # contract_residual
    seen = 0
    for a in p.parts:
        seen |= a.bits
    part_verts = sorted(iter_bits(seen))
    new_id = {v: i for i, v in enumerate(part_verts)}
    t0 = len(part_verts)
    originals: List[VertexSet] = [VertexSet(1 << v) for v in part_verts]
    originals.extend(ts.cliques)
    nn = t0 + len(ts.cliques)
    adj = [0] * nn
    for a in p.parts:
        others = seen & ~a.bits
        for u in iter_bits(a.bits):
            ai = new_id[u]
            for v in iter_bits(g.adj[u] & others & ~((1 << (u + 1)) - 1)):
                vi = new_id[v]
                adj[ai] |= 1 << vi
                adj[vi] |= 1 << ai
    for j, cl in enumerate(ts.cliques):
        cj = t0 + j
        for u in iter_bits(g.common_neighbors(cl.bits) & seen):
            ui = new_id[u]
            adj[ui] |= 1 << cj
            adj[cj] |= 1 << ui
    gstar = Graph(nn, adj)
    parts = [
        VertexSet(sum(1 << new_id[v] for v in iter_bits(a.bits))) for a in p.parts
    ]
    parts.append(VertexSet(((1 << nn) - 1) ^ ((1 << t0) - 1)))

    # multipartite_factor on the quotient
    k = len(parts)
    m = len(parts[0])
    order0 = list(range(k))
    members = [sorted(iter_bits(a.bits)) for a in parts]
    for attempt in range(max(1, retries)):
        if attempt == 0:
            order = order0
            layout = [list(ms) for ms in members]
        else:
            rng = random.Random(0xC1A0 + attempt)
            order = order0[:]
            rng.shuffle(order)
            layout = []
            for ms in members:
                row = list(ms)
                rng.shuffle(row)
                layout.append(row)
        cliques = [1 << v for v in layout[order[0]]]
        ok = True
        for layer in order[1:]:
            verts = layout[layer]
            adj = [0] * (2 * m)
            for ci, cm in enumerate(cliques):
                for vi, v in enumerate(verts):
                    if cm & gstar.adj[v] == cm:
                        adj[ci] |= 1 << (m + vi)
                        adj[m + vi] |= 1 << ci
            mm = maximum_matching(Graph(2 * m, adj))
            if len(mm.pairs) < m:
                ok = False
                break
            for a, b in mm.pairs:
                cliques[a] |= 1 << verts[b - m]
        if not ok:
            continue
        t = Tiling(k, tuple(VertexSet(c) for c in cliques))
        if not tiling_holds(gstar, t):
            continue
        if all((c.bits & a.bits).bit_count() == 1 for c in t.cliques for a in parts):
            # expand
            out = []
            for c in t.cliques:
                bits = 0
                for v in c:
                    bits |= originals[v].bits
                out.append(VertexSet(bits))
            return Tiling(len(out[0]), tuple(out))
    return None


def seed_multipartite_factor(
    g: Graph, blocks: Sequence[Sequence[int]], retries: int = 20
) -> Optional[Tiling]:
    """tiling.multipartite_factor while it tested each clique against each
    unit of a layer one pair at a time."""
    k = len(blocks)
    if k == 0:
        raise PreconditionError("need at least one part")
    sizes = {len(block) for block in blocks}
    if len(sizes) != 1:
        raise PreconditionError("parts must be balanced")
    seen = 0
    for block in blocks:
        for u in block:
            if seen & u:
                raise PreconditionError("parts overlap")
            if u.bit_count() != block[0].bit_count():
                raise PreconditionError("units of one part differ in size")
            seen |= u
    m = sizes.pop()
    if m == 0:
        return Tiling(k, ())
    r = sum(block[0].bit_count() for block in blocks)

    # Each unit with its common neighborhood, the meeting test's right side.
    units = [[(u, g.common_neighbors(u)) for u in block] for block in blocks]
    for attempt in range(max(1, retries)):
        order = list(range(k))
        layout = [list(row) for row in units]
        if attempt:
            rng = random.Random(0xC1A0 + attempt)
            rng.shuffle(order)
            for row in layout:
                rng.shuffle(row)
        cliques = [u for u, _ in layout[order[0]]]
        for layer in order[1:]:
            row = layout[layer]
            pairs = seed_layer_matching(cliques, [common for _, common in row])
            if len(pairs) < m:
                break
            for ci, ui in pairs:
                cliques[ci] |= row[ui][0]
        else:
            t = Tiling(r, tuple(VertexSet(c) for c in cliques))
            if clique_tiles_cover(g, r, t.cliques) is not None:
                return t
    return None


def seed_layer_matching(cliques: List[int], commons: List[int]) -> List[Edge]:
    """tiling._layer_matching while it tested each clique against each unit's
    common neighborhood, then ran the blossom search on the layer graph:
    clique ci on the left, unit ui at m + ui.  Pairs are (ci, ui)."""
    m = len(cliques)
    adj = [0] * (2 * m)
    for ci, cm in enumerate(cliques):
        for ui, common in enumerate(commons):
            if cm & common == cm:
                adj[ci] |= 1 << (m + ui)
                adj[m + ui] |= 1 << ci
    return [(a, b - m) for a, b in maximum_matching(Graph(2 * m, adj)).pairs]


# The three ordered clique enumerations that `graphs.iter_cliques` replaced.


def seed_find_clique_of_size(
    g: Graph, r: int, inside: VertexSet | int | None = None
) -> Optional[VertexSet]:
    """Lexicographically first r-clique inside `inside` (default: all of V).

    Backtracking over candidate masks; each chosen vertex restricts candidates
    to its higher-index neighbors, so every clique is visited once, smallest
    vertex tuple first.
    """
    if r < 0:
        raise ValueError("clique size must be nonnegative")
    if inside is None:
        allowed = g.full_mask
    elif isinstance(inside, VertexSet):
        allowed = inside.bits
    else:
        allowed = inside
    if r == 0:
        return VertexSet(0)

    found: List[int] = []

    def extend(chosen: int, count: int, cand: int) -> bool:
        if count == r:
            found.append(chosen)
            return True
        if count + cand.bit_count() < r:
            return False
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            nxt = rest & g.adj[v]
            if count + 1 + nxt.bit_count() >= r:
                if extend(chosen | low, count + 1, nxt):
                    return True
            if count + rest.bit_count() < r:
                return False
        return False

    if extend(0, 0, allowed):
        return VertexSet(found[0])
    return None


def seed_cliques_with_lowest(g: Graph, mask: int, size: int) -> Iterator[int]:
    """Lex-ordered cliques of `size` inside mask that contain mask's lowest bit."""
    low = mask & -mask
    v = low.bit_length() - 1
    if size == 1:
        yield low
        return

    def gen(chosen: int, count: int, cand: int) -> Iterator[int]:
        if count == size:
            yield chosen
            return
        rest = cand
        while rest:
            b = rest & -rest
            u = b.bit_length() - 1
            rest ^= b
            if count + 1 + (rest & g.adj[u]).bit_count() >= size:
                yield from gen(chosen | b, count + 1, rest & g.adj[u])
            if count + rest.bit_count() < size:
                return

    yield from gen(low, 1, g.adj[v] & mask & ~low)


def seed_iter_cliques(g: Graph, inside: int, size: int, cap: int) -> Iterator[int]:
    """Lexicographic clique enumeration, at most `cap` results."""
    if size == 0:
        yield 0
        return
    emitted = 0

    def walk(cand: int, cur: int, k: int) -> Iterator[int]:
        nonlocal emitted
        if k == 0:
            yield cur
            return
        m = cand
        while m and emitted < cap:
            v = (m & -m).bit_length() - 1
            bit = 1 << v
            m &= m - 1
            yield from walk(m & g.adj[v], cur | bit, k - 1)

    for res in walk(inside, 0, size):
        emitted += 1
        yield res
        if emitted >= cap:
            return


# The matching kernels and components before they took a vertex mask.


def seed_augment_once(g: Graph, match: List[int], root: int) -> Optional[int]:
    """Grow `match` by one edge via an alternating tree from exposed `root`.

    Returns None after augmenting.  Otherwise `match` is untouched and the
    result is the mask of the tree's outer vertices, root included.
    """
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    q = deque([root])

    def lca(a: int, b: int) -> int:
        up = [False] * n
        x = a
        while True:
            x = base[x]
            up[x] = True
            if match[x] == -1:
                break
            x = base[parent[match[x]]]
        y = b
        while not up[base[y]]:
            y = base[parent[match[y]]]
        return base[y]

    def mark_path(v: int, b: int, child: int, blossom: List[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    finish = -1
    while q and finish == -1:
        v = q.popleft()
        for u in iter_bits(g.adj[v]):
            if base[v] == base[u] or match[v] == u:
                continue
            if u == root or (match[u] != -1 and parent[match[u]] != -1):
                b = lca(v, u)
                blossom = [False] * n
                mark_path(v, b, u, blossom)
                mark_path(u, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not in_queue[i]:
                            in_queue[i] = True
                            q.append(i)
            elif parent[u] == -1:
                parent[u] = v
                if match[u] == -1:
                    finish = u
                    break
                w = match[u]
                if not in_queue[w]:
                    in_queue[w] = True
                    q.append(w)
    if finish == -1:
        return sum(1 << i for i in range(n) if in_queue[i])
    u = finish
    while u != -1:
        pv = parent[u]
        nxt = match[pv]
        match[u] = pv
        match[pv] = u
        u = nxt
    return None


def seed_unmasked_matching(g: Graph) -> Matching:
    """A maximum matching: greedy seed, then blossom augmentation.

    The seed matches each exposed vertex, in ascending order, to its lowest
    exposed neighbor; a running mask of covered vertices keeps it at O(n)
    bit operations.  One augmentation pass per remaining exposed vertex
    then makes the matching maximum.
    """
    match = [-1] * g.n
    covered = 0
    for v in range(g.n):
        if match[v] == -1:
            free = g.adj[v] & ~covered
            if free:
                u = (free & -free).bit_length() - 1
                match[v] = u
                match[u] = v
                covered |= (1 << v) | (1 << u)
    for v in range(g.n):
        if match[v] == -1:
            seed_augment_once(g, match, v)
    return Matching.from_array(match)


def seed_covering_matching(g: Graph, x: VertexSet, d: int) -> Optional[Matching]:
    """A matching of exactly d edges covering all of X (|X| = d), or None.

    Exact via reduction to a perfect matching: add n - 2d auxiliary vertices
    joined to V minus X; a perfect matching of the auxiliary graph restricts
    to a d-matching of G covering X, and conversely.
    """
    if len(x) != d:
        raise PreconditionError(f"|X|={len(x)} must equal d={d}")
    n = g.n
    if 2 * d > n:
        return None
    aux = Graph.empty(n + (n - 2 * d))
    for u, v in g.edges():
        aux.add_edge(u, v)
    outside = g.full_mask & ~x.bits
    for i in range(n - 2 * d):
        z = n + i
        for v in iter_bits(outside):
            aux.add_edge(z, v)
    pm = seed_unmasked_matching(aux)
    if 2 * pm.size != aux.n:
        return None
    pairs = tuple(p for p in pm.pairs if p[1] < n)
    out = Matching(pairs)
    if out.size != d or not x.issubset(out.covered):
        raise InternalContradiction("perfect-matching reduction produced a bad cover")
    return out


# The record methods `Matching.verify` and `TutteBarrier.surplus`, kept as
# references once the package stopped calling them: a matching's edges come
# from the blossom search on G's rows, and the decider checks a barrier with
# `certificates.tutte_barrier_holds`.


def matching_holds(m: Matching, g: Graph) -> bool:
    """Whether m's pairs are vertex-disjoint edges of g."""
    seen = 0
    for u, v in m.pairs:
        e = (1 << u) | (1 << v)
        if seen & e or not g.has_edge(u, v):
            return False
        seen |= e
    return True


def barrier_surplus(w: TutteBarrier, g: Graph) -> int:
    """Odd components of G - U minus |U|, for U the barrier's vertices."""
    rest = g.full_mask & ~w.vertices.bits
    odd = sum(len(c) % 2 for c in connected_components(g, rest))
    return odd - len(w.vertices)


def seed_connected_components(g: Graph) -> List[VertexSet]:
    """Components in ascending order of their smallest vertex."""
    seen = 0
    comps: List[VertexSet] = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
        comps.append(VertexSet(comp))
        seen |= comp
    return comps


# The exact equitable-colouring search before the fill and cover prunes.


def _seed_class_profile(n: int, k: int) -> List[int]:
    big = n % k
    q = n // k
    return [q + 1] * big + [q] * (k - big)


def seed_equitable_coloring_exact(g: Graph, k: int) -> Optional[Coloring]:
    """Exact equitable k-coloring (proper, class sizes within 1), or None.

    Greedy attempt first, then complete backtracking over a static
    degree-descending vertex order with capacity and empty-class symmetry
    pruning.  A (k+1)-clique short-circuits to None.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.n
    if n == 0:
        return Coloring(tuple(VertexSet(0) for _ in range(k)))
    if k >= n:
        classes = [VertexSet(1 << v) for v in range(n)]
        classes += [VertexSet(0)] * (k - n)
        return Coloring(tuple(classes))
    if find_clique_of_size(g, k + 1) is not None:
        return None

    caps = _seed_class_profile(n, k)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))

    def result_from(assign: List[int]) -> Coloring:
        bits = [0] * k
        for v, c in enumerate(assign):
            bits[c] |= 1 << v
        return Coloring(tuple(VertexSet(b) for b in bits))

    # Greedy: largest remaining capacity first, feasibility by neighbor masks.
    class_bits = [0] * k
    counts = [0] * k
    assign = [-1] * n
    ok = True
    for v in order:
        best = -1
        for c in range(k):
            if counts[c] >= caps[c] or (class_bits[c] & g.adj[v]):
                continue
            if best == -1 or caps[c] - counts[c] > caps[best] - counts[best]:
                best = c
        if best == -1:
            ok = False
            break
        assign[v] = best
        class_bits[best] |= 1 << v
        counts[best] += 1
    if ok:
        return result_from(assign)

    class_bits = [0] * k
    counts = [0] * k
    assign = [-1] * n

    def place(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        seen_empty_cap = set()
        for c in range(k):
            if counts[c] >= caps[c]:
                continue
            if counts[c] == 0:
                if caps[c] in seen_empty_cap:
                    continue
                seen_empty_cap.add(caps[c])
            if class_bits[c] & g.adj[v]:
                continue
            class_bits[c] |= 1 << v
            counts[c] += 1
            assign[v] = c
            if place(idx + 1):
                return True
            class_bits[c] &= ~(1 << v)
            counts[c] -= 1
            assign[v] = -1
        return False

    if place(0):
        return result_from(assign)
    return None


# The colouring search's backtracking with the fill and cover prunes, before
# forced vertices were committed.


def seed_backtrack(g: Graph, caps: List[int], order: List[int]) -> Optional[List[int]]:
    """The class of each vertex in the first equitable colouring the
    backtracking of `equitable_coloring_exact` reaches, or None.

    Kept apart from the caller so that the short calls, which end before the
    search, do not set up its closures.
    """
    n = g.n
    k = len(caps)
    adj = g.adj
    # near[c] is the union of the neighbour rows of class c; a vertex can
    # join c iff it is outside near[c].
    near = [0] * k
    counts = [0] * k
    assign = [-1] * n
    armed = False

    def feasible(rest: int) -> bool:
        # Fill: a non-full class needs enough unplaced vertices it can take.
        # Cover: every unplaced vertex needs a non-full class that can take it.
        stuck = rest
        for c in range(k):
            need = caps[c] - counts[c]
            if need:
                if (rest & ~near[c]).bit_count() < need:
                    return False
                stuck &= near[c]
        return not stuck

    def place(idx: int, rest: int) -> bool:
        nonlocal armed
        if idx == n:
            return True
        v = order[idx]
        bit = 1 << v
        rest ^= bit
        row = adj[v]
        seen_empty_cap = 0
        for c in range(k):
            cnt = counts[c]
            if cnt >= caps[c]:
                continue
            if cnt == 0:
                if seen_empty_cap >> caps[c] & 1:
                    continue
                seen_empty_cap |= 1 << caps[c]
            old = near[c]
            if old & bit:
                continue
            near[c] = old | row
            counts[c] = cnt + 1
            assign[v] = c
            if not armed or feasible(rest):
                if place(idx + 1, rest):
                    return True
                armed = True
            near[c] = old
            counts[c] = cnt
            assign[v] = -1
        return False

    return assign if place(0, g.full_mask) else None


# The colouring search's backtracking before its propagation kept free sets:
# every round of `propagate` recomputes every class, and a commit log undoes
# the shared class rows.


def full_pass_backtrack(adj: Rows, mask: int, caps: List[int], order: List[int]) -> Optional[List[int]]:
    """The class of each vertex in the first equitable colouring the
    backtracking of `equitable_coloring_exact` reaches, or None.

    Once armed, each child runs `propagate`: fill, cover, the commit of
    every vertex that only one non-full class can still take, and the
    commit of every tight class's free set, in one pass over the classes
    per round, repeated until nothing more is forced or filled, and then
    independence: each class with need >= 3 and slack <= 3 must still find
    an independent set of `need` vertices in its free set (`_covers`).  A
    committed vertex lies in that class in every colouring below the child,
    so the commits drop only options no colouring uses, and `place` skips a
    committed vertex when its turn in `order` comes.  The class order and
    the vertex order stay static, and so does the empty-class break: an
    empty class never takes a forced vertex while another empty class of
    its size exists, since both could take it, and it is tight only when
    every other class is full.  Kept apart from the caller so that the
    short calls, which end before the search, do not set up its closures.
    """
    k = len(caps)
    # near[c] is the union of the neighbour rows of class c; a vertex can
    # join c iff it is outside near[c].
    near = [0] * k
    counts = [0] * k
    # Read only at a leaf, where the current path has placed or committed
    # every vertex, so a backtrack leaves its entries stale.
    assign = [-1] * mask.bit_length()
    # None until the first dead end arms the checks; then the commits, as
    # (class, its near row before, how many vertices it took), for the undo.
    log: Optional[List[Tuple[int, int, int]]] = None

    def propagate(rest: int) -> int:
        # `rest`, the unassigned vertices, less those committed; -1 when no
        # colouring lies below.  Each round is one pass over the classes.
        # A non-full class first takes its share of `forced`, the vertices
        # the last round found only it could take (already out of `rest`);
        # the share fails when it overfills the class or is not
        # independent.  Then the class's free set, the vertices of `rest`
        # it can take, is checked.  Fill: fewer than the places left fails.
        # Tight: exactly as many, and the class takes the whole set, which
        # leaves `rest` at once, so a later tight class that shares a vertex
        # with it fails fill.  Otherwise the set goes into `ones`, the
        # vertices at least one such class can take, and `twos`, those two
        # can.  Cover: a vertex of `rest` outside `ones` fails.  The round
        # repeats while it forced a vertex or filled a class and left
        # vertices to place.  Then independence: a class whose free set
        # holds no independent set of its `need` fails.  It runs once, after
        # the rounds, since the commits only shrink free sets.  It skips
        # need 1, which passes whenever fill does, and need 2, which fails
        # only on a free set that is a clique and cut no node of the sweeps;
        # slack <= 3 keeps the cover search to at most 8 branches.
        forced = 0
        while True:
            ones = twos = 0
            filled = False
            for c in range(k):
                need = caps[c] - counts[c]
                if not need:
                    continue
                row = near[c]
                if forced:
                    take = forced & ~row
                    if take:
                        size = take.bit_count()
                        if size > need:
                            return -1
                        rows = _claim(adj, assign, c, take)
                        if rows & take:
                            return -1
                        log.append((c, row, size))
                        row |= rows
                        near[c] = row
                        counts[c] += size
                        need -= size
                        if not need:
                            continue
                free = rest & ~row
                room = free.bit_count()
                if room > need:
                    twos |= ones & free
                    ones |= free
                elif room < need:
                    return -1
                else:
                    rows = _claim(adj, assign, c, free)
                    if rows & free:
                        return -1
                    log.append((c, row, need))
                    near[c] = row | rows
                    counts[c] += need
                    rest ^= free
                    filled = True
            if rest & ~ones:
                return -1
            forced = rest & ~twos
            if not (forced or filled and rest):
                break
            rest ^= forced
        for c in range(k):
            need = caps[c] - counts[c]
            if need >= 3:
                free = rest & ~near[c]
                slack = free.bit_count() - need
                if slack <= 3 and not _covers(adj, free, slack):
                    return -1
        return rest

    def place(idx: int, rest: int) -> bool:
        nonlocal log
        if not rest:
            return True
        v = order[idx]
        while not rest >> v & 1:
            idx += 1
            v = order[idx]
        bit = 1 << v
        rest ^= bit
        row = adj[v]
        seen_empty_cap = 0
        for c in range(k):
            cnt = counts[c]
            if cnt >= caps[c]:
                continue
            if cnt == 0:
                if seen_empty_cap >> caps[c] & 1:
                    continue
                seen_empty_cap |= 1 << caps[c]
            old = near[c]
            if old & bit:
                continue
            near[c] = old | row
            counts[c] = cnt + 1
            assign[v] = c
            if log is None:
                if place(idx + 1, rest):
                    return True
                # Every commit below has been undone, so the log is empty.
                log = []
            else:
                mark = len(log)
                left = propagate(rest)
                if left >= 0 and place(idx + 1, left):
                    return True
                while len(log) > mark:
                    d, before, size = log.pop()
                    near[d] = before
                    counts[d] -= size
            near[c] = old
            counts[c] = cnt
        return False

    return assign if place(0, mask) else None


# The bit walk, degree threshold and sparse-set probe before wide masks were
# walked in C; the probe calls the peel in place of `iter_bits`.


def seed_iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def seed_low_degree_set(g: Graph, threshold) -> VertexSet:
    """Vertices of degree strictly below `threshold` (exact rational compare)."""
    t = as_fraction(threshold)
    bits = 0
    for v in range(g.n):
        if g.degree(v) < t:
            bits |= 1 << v
    return VertexSet(bits)


def seed_greedy_independent(g: Graph, universe: int, size: int) -> Optional[VertexSet]:
    order = sorted(
        iter_bits(universe), key=lambda v: ((g.adj[v] & universe).bit_count(), v)
    )
    chosen = 0
    for v in order:
        if not (g.adj[v] & chosen):
            chosen |= 1 << v
            if chosen.bit_count() == size:
                return VertexSet(chosen)
    return None


def seed_sparse_set(
    g: Graph, universe: int, size: int, budget, order: int
) -> Optional[VertexSet]:
    """A size-subset of `universe` inducing at most budget * order^2 edges.

    Exact when zero edges are allowed and the universe has at most 64
    vertices (independent-set branch and bound); otherwise a bounded
    deterministic search, so None is "not found", not a nonexistence proof.
    """
    if universe.bit_count() < size or size <= 0:
        return None if size > 0 else VertexSet(0)
    limit = as_fraction(budget) * order * order
    if universe.bit_count() <= 64:
        found = max_independent_set(g, inside=universe)
    else:
        found = seed_greedy_independent(g, universe, size)
    if found is not None and len(found) >= size:
        return VertexSet(lowest_vertices(found.bits, size))
    if limit < 1:
        return None
    # Hill climb from two deterministic starts, ejecting the most crowded
    # member for the best replacement until the edge budget is met.
    starts = [
        sorted(seed_iter_bits(universe), key=lambda v: ((g.adj[v] & universe).bit_count(), v)),
        sorted(seed_iter_bits(universe)),
    ]
    for order_list in starts:
        cur = 0
        for v in order_list[:size]:
            cur |= 1 << v
        for _ in range(200):
            edges = induced_edge_count(g, cur)
            if edges <= limit:
                return VertexSet(cur)
            worst = max(seed_iter_bits(cur), key=lambda v: ((g.adj[v] & cur).bit_count(), v))
            rest = cur & ~(1 << worst)
            drop = (g.adj[worst] & cur).bit_count()
            best_v, best_gain = -1, 0
            for o in seed_iter_bits(universe & ~cur):
                gain = drop - (g.adj[o] & rest).bit_count()
                if gain > best_gain:
                    best_v, best_gain = o, gain
            if best_v < 0:
                break
            cur = rest | (1 << best_v)
        if induced_edge_count(g, cur) <= limit:
            return VertexSet(cur)
    return None


# The sparse-set probe while its hill climb recounted every inside-degree,
# and the edge count, at each swap.


def seed_recount_sparse_set(
    g: Graph, universe: int, size: int, budget, order: int
) -> Optional[VertexSet]:
    """A size-subset of `universe` inducing at most budget * order^2 edges.

    First an independent set from `independent_set_of_size`, exact up to
    64 vertices of the mask (here the universe), so with zero edges allowed
    a None there is a nonexistence proof.  Otherwise a bounded
    deterministic search, so None is "not found", not a nonexistence proof.
    """
    if universe.bit_count() < size or size <= 0:
        return None if size > 0 else VertexSet(0)
    found = independent_set_of_size(g, size, universe)
    if found is not None:
        return found
    limit = as_fraction(budget) * order * order
    if limit < 1:
        return None
    # Degree floor: a member v of a size-subset S of the universe U misses at
    # most |U| - size of its neighbours in U, so it keeps at least
    # d_U(v) - (|U| - size) of them inside S, and 2 e(S) is at least the sum
    # of the `size` smallest such terms (floored at 0) over U.  When that sum
    # exceeds 2 * limit no subset meets the budget, so neither search below
    # could return one: returning None here changes no answer.
    slack = universe.bit_count() - size
    inner = sorted((g.adj[v] & universe).bit_count() for v in iter_bits(universe))
    if sum(max(0, d - slack) for d in inner[:size]) > 2 * limit:
        return None
    # Hill climb from two deterministic starts, ejecting the most crowded
    # member for the best replacement until the edge budget is met.
    starts = [
        sorted(iter_bits(universe), key=lambda v: ((g.adj[v] & universe).bit_count(), v)),
        sorted(iter_bits(universe)),
    ]
    for order_list in starts:
        cur = 0
        for v in order_list[:size]:
            cur |= 1 << v
        for _ in range(200):
            edges = induced_edge_count(g, cur)
            if edges <= limit:
                return VertexSet(cur)
            worst = max(iter_bits(cur), key=lambda v: ((g.adj[v] & cur).bit_count(), v))
            rest = cur & ~(1 << worst)
            drop = (g.adj[worst] & cur).bit_count()
            best_v, best_gain = -1, 0
            for o in iter_bits(universe & ~cur):
                gain = drop - (g.adj[o] & rest).bit_count()
                if gain > best_gain:
                    best_v, best_gain = o, gain
            if best_v < 0:
                break
            cur = rest | (1 << best_v)
        if induced_edge_count(g, cur) <= limit:
            return VertexSet(cur)
    return None


# The absorbing-set build while each probe asked for four absorbers.


def seed_build_absorbing_set(
    g: Graph, r: int, cfg: Optional[ConstantsConfig] = None, seed: int = 0
) -> Optional[AbsorbingSet]:
    """absorbing.build_absorbing_set keeping, per probe, the first of up to
    four sampled absorbers that is disjoint from the vertices already taken."""
    if r < 2:
        raise PreconditionError("need r >= 2")
    if cfg is None:
        cfg = default_constants(r)
    n = g.n
    _sigma_gate(g, r, cfg.alpha)
    if n >= r:
        sp = _sparse_set(g, g.full_mask, n // r, cfg.gamma, n)
        if sp is not None:
            return None

    slow = low_degree_set(g, (1 - Fraction(1, r) - cfg.alpha) * n)
    exploit_clique = len(slow) > cfg.xi * n
    cap = int(2 * cfg.xi * n)
    reserve = 0 if exploit_clique or not slow else len(slow) + (r - 1) * (r - 1)
    fam_cap = max(0, cap - reserve) // (r * r)
    needed = max(1, int(cfg.epsilon * n) // r)
    if fam_cap < needed:
        return None
    fam_target = min(fam_cap, needed + 2)
    probe_pool = g.full_mask if exploit_clique else g.full_mask & ~slow.bits

    for attempt in range(10):
        rng = random.Random(0xAB50 + seed * 1000003 + attempt)
        picked: List[VertexSet] = []
        taken = 0
        for _ in range(8 * fam_target + 8):
            if len(picked) >= fam_target:
                break
            pool = list(iter_bits(probe_pool & ~taken))
            if len(pool) < r:
                break
            probe = VertexSet(rng.sample(pool, r))
            fam = enumerate_absorbers(
                g, probe, r, budget=4, cfg=cfg,
                seed=rng.randrange(1 << 30), exclude=taken,
            )
            for s in fam.members:
                if not (s.bits & taken):
                    picked.append(s)
                    taken |= s.bits
                    break
        if len(picked) < needed:
            continue

        factors = []
        for s in picked:
            f = kr_factor_exact(g, r, s.bits)
            if f is None:
                raise InternalContradiction("verified absorber lost its factor")
            factors.append(f.cliques)

        fixed: List[VertexSet] = []
        if reserve:
            if not g.is_clique(slow.bits):
                raise InternalContradiction(
                    "low-degree set is not a clique despite the degree-sum floor"
                )
            left = sorted(slow.members())
            while len(left) >= r:
                fixed.append(VertexSet(left[:r]))
                left = left[r:]
            ok = True
            for w in left:
                inside = g.adj[w] & ~slow.bits & ~taken
                for c in fixed:
                    inside &= ~c.bits
                comp = find_clique_of_size(g, r - 1, inside)
                if comp is None:
                    ok = False
                    break
                fixed.append(VertexSet(comp.bits | (1 << w)))
            if not ok:
                continue

        out = AbsorbingSet(r, cfg.epsilon, tuple(picked), tuple(factors), tuple(fixed))
        if len(out.m) <= cap:
            return out
    return None


# The layered greedy while it searched again from vertex 0 for every clique.


def seed_layered_greedy(g: Graph, r: int, inside: Optional[int] = None) -> LayeredFactor:
    """absorbing.layered_greedy taking each clique by `find_clique_of_size`
    over the whole mask left."""
    if r < 1:
        raise PreconditionError("need r >= 1")
    pieces: List[VertexSet] = []
    mask = g.full_mask if inside is None else inside
    n = mask.bit_count()
    for size in range(r, 0, -1):
        while True:
            c = find_clique_of_size(g, size, mask)
            if c is None or len(c) == 0:
                break
            pieces.append(c)
            mask &= ~c.bits

    for _ in range(n * r + 10):
        move = find_augmentation(g, pieces)
        if move is None:
            break
        if not move.check(g):
            raise InternalContradiction(f"bad augmentation move {move}")
        old = _profile(pieces, r)
        gone = {move.source.bits} | {h.bits for h in move.helpers}
        pieces = [p for p in pieces if p.bits not in gone]
        pieces.extend(move.replacements)
        new = _profile(pieces, r)
        if not (new > old and new[0] >= old[0]):
            raise InternalContradiction(f"move did not improve the profile: {old} -> {new}")
    else:
        raise InternalContradiction("augmentation loop failed to stabilize")

    layers: Dict[int, List[VertexSet]] = {}
    for p in sorted(pieces, key=lambda c: c.bits):
        layers.setdefault(len(p), []).append(p)
    return LayeredFactor(r, {s: tuple(ps) for s, ps in layers.items()})


# The colouring search's entry and greedy before the singletons were peeled
# inline, the degree order looked its degrees up and the greedy kept one
# `room` list; and the canonical form's batch before its 0/1 matrix was
# filled by one shift-and-mask.


def seed_classes(adj: Rows, mask: int, k: int) -> Optional[List[int]]:
    """The class masks of the equitable k-colouring of the graph on `mask`
    that `equitable_coloring_exact` returns, or None.

    `adj[v]` is the row of a vertex v of `mask`, a subset of `mask`: a list
    of a graph's rows, or a dict of complement rows over a vertex mask.
    """
    n = mask.bit_count()
    if n == 0:
        return [0] * k
    if k >= n:
        return [1 << v for v in iter_bits(mask)] + [0] * (k - n)
    if next(_clique_walk(adj, 0, k + 1, mask), None) is not None:
        return None

    caps = _class_profile(n, k)
    # sorted stays stable under reverse=True: equal degrees keep index order.
    order = sorted(iter_bits(mask), key=lambda v: adj[v].bit_count(), reverse=True)

    # Greedy: largest remaining capacity first, feasibility by neighbor masks.
    bits = [0] * k
    counts = [0] * k
    for v in order:
        best = -1
        for c in range(k):
            if counts[c] >= caps[c] or (bits[c] & adj[v]):
                continue
            if best == -1 or caps[c] - counts[c] > caps[best] - counts[best]:
                best = c
        if best == -1:
            # The greedy is stuck; the complete search decides.
            assign = _backtrack(adj, mask, caps, order)
            if assign is None:
                return None
            bits = [0] * k
            for u in order:
                bits[assign[u]] |= 1 << u
            return bits
        bits[best] |= 1 << v
        counts[best] += 1
    return bits


def seed_canonical_batch(n: int, masks: List[int]) -> List[int]:
    import numpy as np

    table = _perm_pow_table(n)
    m = n * (n - 1) // 2
    out: List[int] = []
    chunk = 512
    for lo in range(0, len(masks), chunk):
        batch = masks[lo : lo + chunk]
        x = np.zeros((len(batch), m), dtype=np.float64)
        for row, mask in enumerate(batch):
            mm = mask
            while mm:
                low = mm & -mm
                x[row, low.bit_length() - 1] = 1.0
                mm ^= low
        values = x @ table.T
        out.extend(int(v) for v in values.min(axis=1))
    return out


# The instance generators before the G(n, p) draw moved to C and the Ore
# repair began updating degrees in place.


def seed_random_gnp(n: int, p, seed: int = 0) -> Graph:
    """generators.random_gnp sampling pair by pair in (u, v) order."""
    if n < 0:
        raise PreconditionError(f"need n >= 0, got {n}")
    prob = float(p)
    if not 0.0 <= prob <= 1.0:
        raise PreconditionError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def seed_random_ore(n: int, r: int, alpha, seed: int = 0) -> Graph:
    """generators.random_ore calling `sigma` afresh and copying the rows on
    every repair."""
    if r < 2:
        raise PreconditionError(f"need r >= 2, got {r}")
    a = as_fraction(alpha)
    if a < 0:
        raise PreconditionError(f"need alpha >= 0, got {alpha}")
    g = seed_random_gnp(n, 1.0 - 1.0 / r, seed)
    floor = 2 * (1 - Fraction(1, r) - a) * n
    while True:
        stats = sigma(g)
        if stats.sigma >= floor or stats.witness is None:
            return g
        u, v = stats.witness
        adj = list(g.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        g = Graph(g.n, adj)


# The odd-split recognizer before its degree-profile gate.


def seed_recognize_ex2(g: Graph, r: int) -> Optional[Ex2Witness]:
    """extremal._recognize_ex2 building the complement of every input."""
    n = g.n
    if r < 3 or n == 0 or n % r != 0:
        return None
    m = n // r
    co = complement(g)
    comps = list(connected_components(co))
    if len(comps) != r - 1:
        return None
    a_parts: List[VertexSet] = []
    b_comp: Optional[VertexSet] = None
    for c in comps:
        if len(c) == m:
            a_parts.append(c)
        elif len(c) == 2 * m and b_comp is None:
            b_comp = c
        else:
            return None
    if b_comp is None or len(a_parts) != r - 2:
        return None
    low = b_comp.bits & -b_comp.bits
    u = low.bit_length() - 1
    side0 = b_comp.bits & ~co.adj[u]
    side1 = b_comp.bits & co.adj[u]
    if side0.bit_count() % 2 == 0 or side1.bit_count() % 2 == 0:
        return None
    if side0.bit_count() > side1.bit_count():
        side0, side1 = side1, side0
    s = side0.bit_count()
    if not (1 <= s <= m):
        return None
    w = Ex2Witness(tuple(a_parts), VertexSet(side0), VertexSet(side1))
    return w if odd_split_holds(g, w, r) else None


# The degree-sum gates as level walks: per vertex, one big-int meet with each
# degree level in turn.


def seed_sigma(g: Graph) -> OreStats:
    """graphs.sigma walking the degree levels from every vertex."""
    degs = g.degrees()
    levels = _degree_levels(degs)
    full = g.full_mask
    best = math.inf
    wit: Optional[Edge] = None
    for u in range(g.n):
        du = degs[u]
        later = ~g.adj[u] & (full >> (u + 1) << (u + 1))
        for d, level in levels:
            if du + d >= best:
                break
            meet = later & level
            if meet:
                best = du + d
                wit = (u, (meet & -meet).bit_length() - 1)
                break
    return OreStats(best, wit)


def seed_ore_edge_bound(g: Graph, k: int) -> Tuple[bool, Optional[Edge]]:
    """graphs.ore_edge_bound walking the degree levels from the top down."""
    degs = g.degrees()
    levels = _degree_levels(degs)[::-1]
    worst: Optional[Edge] = None
    worst_sum = -1
    for u in range(g.n):
        du = degs[u]
        later = g.adj[u] >> (u + 1) << (u + 1)
        for d, level in levels:
            if du + d <= worst_sum:
                break
            meet = later & level
            if meet:
                worst_sum = du + d
                worst = (u, (meet & -meet).bit_length() - 1)
                break
    return worst_sum <= 2 * k, worst
