"""Sparse-part partitions: peel them off a graph, then check they are good.

The extremal pipeline wants V(G) split into parts A_1..A_s of size n/r,
each inducing very few edges, plus a leftover block B with no sparse
n/r-subset.  `peel_partition` extracts such parts greedily.  Vertices are
then graded per part by exact degree thresholds (bad inside a part,
exceptional or excellent toward it), and `refine_to_good` grades the
peeled partition once, without moving a vertex: the good-partition
clauses are read on those grades, and (A4)'s rescue clauses hold because
a rescue matching that cannot be built is a miss.  The decider checks
the factor built on the partition.  A partition's shape is checked
where it is made or enters: `peel_partition`, `refine_to_good` and
`classify`.  Refinement returns only the good partition, or misses with
PreconditionError; it never answers NO, since the NO shapes are the
recognizer's, which runs first.
The sparse-set search is exact on at most EXACT_LIMIT (64) vertices, and
there a greedy clique cover can answer None before it searches: a set of
n/r vertices with at most c edges holds an independent set of n/r - c
vertices, and a cover by fewer cliques than that proves none exists.
That None is the one the exact search or the hill climb would have
returned, so peeling finds the same parts with or without the cover.
Everything runs on bitmasks with Fraction constants rounded once to
integer thresholds, so results are reproducible and never depend on
float rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .constants import ConstantsConfig, default_constants
from .errors import InternalContradiction, PreconditionError
from .extremal import EXACT_LIMIT, _independent_heuristic, independent_set_of_size
from .graphs import (
    Graph,
    VertexSet,
    _clique_cover_count,
    as_fraction,
    induced_edge_count,
    iter_bits,
    low_degree_set,
)
from .matching import Matching, covering_matching

__all__ = [
    "RsPartition",
    "VertexClassification",
    "GoodPartition",
    "slack_threshold",
    "peel_partition",
    "classify",
    "refine_to_good",
]


def slack_threshold(n: int, r: int) -> Fraction:
    """Degree bound (1 - 1/r)n - 1; vertices strictly below it form S."""
    return Fraction(r - 1, r) * n - 1


class RsPartition(NamedTuple):
    """Parts A_1..A_s of equal size n/r plus the leftover block B."""

    parts: Tuple[VertexSet, ...]
    b: VertexSet

    @property
    def s(self) -> int:
        return len(self.parts)

    def check(self, n: int) -> None:
        seen = 0
        for p in list(self.parts) + [self.b]:
            if seen & p.bits:
                raise PreconditionError("partition blocks overlap")
            seen |= p.bits
        if seen != (1 << n) - 1:
            raise PreconditionError("partition does not cover the vertex set")
        if self.parts:
            size = len(self.parts[0])
            if size == 0 or any(len(p) != size for p in self.parts):
                raise PreconditionError("parts must share one nonzero size")
            if n % size != 0:
                raise PreconditionError(f"part size {size} must divide n={n}")


class VertexClassification(NamedTuple):
    """Per-part vertex grades at one threshold delta.

    For x in A_i, `bad` collects d(x, A_i) >= delta*n.  For x outside A_i,
    `exceptional` collects d(x, A_i) <= delta*n and `excellent` collects
    d(x, A_i) >= |A_i| - delta*n.  `excellent_b` grades d(x, B) the same
    way.  `low_degree` is the set S of globally thin vertices, and
    `off_low` strips it from a set.
    """

    partition: RsPartition
    delta: Fraction
    low_degree: VertexSet
    bad: Tuple[VertexSet, ...]
    exceptional: Tuple[VertexSet, ...]
    excellent: Tuple[VertexSet, ...]
    excellent_b: VertexSet

    def off_low(self, vs: VertexSet) -> VertexSet:
        return vs - self.low_degree

    def excellent_everywhere(self) -> VertexSet:
        """Vertices excellent toward every block they do not belong to."""
        out = self.excellent_b | self.partition.b
        for i, part in enumerate(self.partition.parts):
            out = out & (self.excellent[i] | part)
        return out


def classify(
    g: Graph, p: RsPartition, deltas: Tuple
) -> Tuple[VertexClassification, ...]:
    """Grade every vertex against every block, once per threshold in `deltas`.

    Each block's degree row d(v, X) is counted once and read at every
    threshold: the row is bucketed by degree, and a running OR from the top
    turns the buckets into "degree at least t" masks, so a grade at any
    threshold is one lookup.  The row of the whole vertex set, the degree
    sequence, gives the slack set S.  Returns one classification per
    threshold, in the order given.  p's shape is checked here.
    """
    p.check(g.n)
    return _classify(g, p, deltas)


def _classify(g: Graph, p: RsPartition, deltas: Tuple) -> Tuple[VertexClassification, ...]:
    """`classify` on a partition whose shape the caller has checked."""
    n = g.n
    full = g.full_mask
    deg = _at_least(g, full)
    # S is the vertices of degree strictly below the slack threshold.
    cut = math.ceil(slack_threshold(n, n // len(p.parts[0]) if p.parts else 1))
    slack = VertexSet(full & ~deg(cut))
    rows = [_at_least(g, part.bits) for part in p.parts]
    row_b = _at_least(g, p.b.bits)
    out = []
    for delta in deltas:
        d = as_fraction(delta)
        # Degrees are integers, so crowded means d >= ceil(delta*n), thin
        # means d <= floor(delta*n) and excellent toward X means
        # d >= |X| - floor(delta*n).
        crowd = math.ceil(d * n)
        thin = math.floor(d * n)
        bad: List[VertexSet] = []
        exc: List[VertexSet] = []
        exl: List[VertexSet] = []
        for part, ge in zip(p.parts, rows):
            m = part.bits
            bad.append(VertexSet(ge(crowd) & m))
            exc.append(VertexSet(full & ~m & ~ge(thin + 1)))
            exl.append(VertexSet(ge(len(part) - thin) & ~m))
        cls = VertexClassification(
            partition=p,
            delta=d,
            low_degree=slack,
            bad=tuple(bad),
            exceptional=tuple(exc),
            excellent=tuple(exl),
            excellent_b=VertexSet(row_b(len(p.b) - thin) & ~p.b.bits),
        )
        _check_thin_spread(g, cls)
        out.append(cls)
    return tuple(out)


def _at_least(g: Graph, mask: int):
    """t -> the mask of the vertices with at least t neighbours in `mask`."""
    size = mask.bit_count()
    # levels[t] collects degree exactly t, then, ORed from the top, at least t.
    levels = [0] * (size + 2)
    for v, a in enumerate(g.adj):
        levels[(a & mask).bit_count()] |= 1 << v
    for t in range(size, -1, -1):
        levels[t] |= levels[t + 1]
    top = len(levels) - 1
    return lambda t: levels[min(max(t, 0), top)]


def _check_thin_spread(g: Graph, cls: VertexClassification) -> None:
    # Pigeonhole sanity: d(v) > (1 - 2/r + 2*delta)n forces d(v, A_i) <= delta*n
    # for at most one part.  A breach means the grade sets were computed wrong.
    p = cls.partition
    if not p.parts:
        return
    n = g.n
    r = n // len(p.parts[0])
    bound = Fraction(r - 2, r) * n + 2 * cls.delta * n
    once = twice = 0
    for x in cls.exceptional:
        twice |= once & x.bits
        once |= x.bits
    for v in iter_bits(twice):
        dv = g.adj[v].bit_count()
        if dv > bound:
            count = sum(v in x for x in cls.exceptional)
            raise InternalContradiction(
                f"vertex {v} grades thin toward {count} parts at degree {dv}"
            )


def _sparse_set(
    g: Graph, universe: int, size: int, budget, order: int
) -> Optional[VertexSet]:
    """A size-subset of `universe` inducing at most budget * order^2 edges.

    First an independent set from `independent_set_of_size`, exact up to
    EXACT_LIMIT vertices of the mask (here the universe), so with zero
    edges allowed a None there is a nonexistence proof.  Otherwise a degree
    floor that can refute the budget, then a deterministic hill climb of at
    most 200 swaps from the `size` vertices of least degree, so None is
    "not found", not a nonexistence proof.  In the exact regime a None may also come
    from a greedy clique cover, before the search or the climb: fewer than
    `size` cliques rule out an independent `size`-set, and fewer than
    size - cap rule out a set with at most cap = floor(budget * order^2)
    edges, so the search or the climb would have returned None too.  The
    climb keeps every inside-degree as bit-sliced counters, so a swap
    costs O(log n) big-int operations, not a recount over the members.
    Each vertex's degree inside the universe is counted once, into a plain
    list: the greedy's room count and the degree floor read it unsorted or
    as sorted ints, and the vertices are put in degree order only when the
    greedy or the climb runs.
    """
    if universe.bit_count() < size or size <= 0:
        return None if size > 0 else VertexSet(0)
    verts = list(iter_bits(universe))
    degs = [(g.adj[v] & universe).bit_count() for v in verts]
    if len(verts) > EXACT_LIMIT:
        found = _independent_heuristic(g, size, universe, degs)
    else:
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
    # exceeds 2 * limit no subset meets the budget, so the climb below
    # could not return one: returning None here changes no answer.
    slack = len(verts) - size
    if sum(max(0, d - slack) for d in sorted(degs)[:size]) > 2 * limit:
        return None
    # Edge counts are ints, so the climb compares them with the floor.
    cap = math.floor(limit)
    # Dropping one end of each edge of a set with at most `cap` edges leaves
    # an independent set of size - cap vertices.  In the exact regime a
    # greedy clique cover of fewer cliques proves none exists, so the climb
    # below could not return a set either.
    if len(verts) <= EXACT_LIMIT and _clique_cover_count(g, universe, size - cap) < size - cap:
        return None
    # Hill climb from the least degrees (lowest index on ties), ejecting the
    # most crowded member (highest index on ties) for the outside vertex with
    # the fewest neighbours in the rest (lowest index on ties) until the edge
    # budget is met, for at most 200 swaps or until no swap lowers the edge
    # count.  slices[b] holds bit b of every vertex's |N(v) & cur|; each
    # pick is a scan over the slices from the top bit down.
    by_degree = [verts[i] for i in sorted(range(len(verts)), key=degs.__getitem__)]
    cur = 0
    slices: List[int] = []
    for v in by_degree[:size]:
        cur |= 1 << v
        _count_row(slices, g.adj[v], 1)
    edges = sum((s & cur).bit_count() << b for b, s in enumerate(slices)) // 2
    for _ in range(200):
        if edges <= cap:
            break
        top = cur
        for s in reversed(slices):
            t = top & s
            if t:
                top = t
        worst = top.bit_length() - 1
        rest = cur & ~(1 << worst)
        drop = (g.adj[worst] & cur).bit_count()
        low = universe & ~cur
        if not low:
            break
        # From here the counters read |N(v) & rest|.
        _count_row(slices, g.adj[worst], -1)
        for s in reversed(slices):
            t = low & ~s
            if t:
                low = t
        best = (low & -low).bit_length() - 1
        gain = drop - (g.adj[best] & rest).bit_count()
        if gain <= 0:
            break
        _count_row(slices, g.adj[best], 1)
        cur = rest | (1 << best)
        edges -= gain
    return VertexSet(cur) if edges <= cap else None


def _count_row(slices: List[int], row: int, sign: int) -> None:
    """Add (sign 1) or subtract (sign -1) one to the bit-sliced counters of
    the vertices in `row`, by a ripple carry or borrow from the lowest slice."""
    carry = row
    for b, s in enumerate(slices):
        if not carry:
            return
        slices[b] = s ^ carry
        carry &= s if sign > 0 else ~s
    if carry:
        slices.append(carry)


def peel_partition(
    g: Graph, r: int, cfg: Optional[ConstantsConfig] = None
) -> Tuple[RsPartition, int]:
    """Extract sparse parts of size n/r one by one until the search fails.

    The first part must avoid the thin set S entirely; later parts are
    searched inside the remaining graph, also off S, with the edge budget
    scaled to the residual order.  s = 0 (no parts, B = V) signals that no
    sufficiently sparse part exists as far as the bounded search can tell.
    """
    n = g.n
    if r < 2 or n == 0 or n % r != 0:
        raise PreconditionError(f"need r >= 2 dividing n, got r={r}, n={n}")
    if cfg is None:
        cfg = default_constants(r)
    size = n // r
    full = g.full_mask
    slack = low_degree_set(g, slack_threshold(n, r))
    parts: List[VertexSet] = []
    # Seed: a gamma-sparse part, S excluded up front so no swap step is
    # needed afterwards.  If even gamma_1 fails there is nothing to peel.
    first = _sparse_set(g, full & ~slack.bits, size, cfg.gamma, n)
    if first is None:
        first = _sparse_set(g, full & ~slack.bits, size, cfg.gamma_i(1), n)
    if first is None:
        return RsPartition((), VertexSet(full)), 0
    parts.append(first)
    remaining = full & ~first.bits & ~slack.bits
    while len(parts) < r:
        i = len(parts) + 1
        order = n - len(parts) * size
        nxt = _sparse_set(g, remaining, size, cfg.gamma_i(i), order)
        if nxt is None:
            break
        parts.append(nxt)
        remaining &= ~nxt.bits
    used = 0
    for p in parts:
        used |= p.bits
    out = RsPartition(tuple(parts), VertexSet(full & ~used))
    out.check(n)
    return out, out.s


class GoodPartition(NamedTuple):
    """A refined partition with its grades, rescue matchings and constants.

    The partition is graded once at each threshold the tiling stage reads:
    `classification` at delta = 2 * beta_prime, `thin` at beta/2 and
    `crowded` at 2 * beta (`_grade_thresholds`).  `rescue[i]` matches every
    off-S vertex that is thin toward A_i at beta/2 into A_i, each edge one
    thin vertex and one vertex of A_i; the matchings are pairwise disjoint.
    Refinement reads (S), (A1)-(A3) and (A4)'s "crowded and thin" on the
    grades it carries; (A4)'s rescue clauses hold because
    `_rescue_matchings` misses where it cannot build them.  The tiling
    stages trust the grades and shape.
    """

    partition: RsPartition
    classification: VertexClassification
    thin: VertexClassification
    crowded: VertexClassification
    rescue: Tuple[Matching, ...]
    constants: ConstantsConfig

    @property
    def low_degree(self) -> VertexSet:
        return self.classification.low_degree


def _grade_thresholds(cfg: ConstantsConfig) -> Tuple[Fraction, Fraction, Fraction]:
    """The thresholds of a good partition's grades, in the order `thin`,
    `crowded`, `classification`: beta/2, 2 * beta and 2 * beta_prime."""
    return (cfg.beta / 2, 2 * cfg.beta, 2 * cfg.beta_prime)


def refine_to_good(
    g: Graph, p: RsPartition, cfg: Optional[ConstantsConfig] = None
) -> GoodPartition:
    """Grade a peeled partition once and return it as a good partition.

    No vertex moves: the partition is graded at the three thresholds of
    `_grade_thresholds`, the rescue matchings are built on its beta/2
    grade, and the clauses (S) and (A1)-(A4) are read on those grades.
    When a rescue matching cannot be built, or a clause fails, this raises
    PreconditionError: at this n the configured constants cannot honour
    the guarantees on this partition, and callers should fall back to
    another route.

    Without `cfg` the scales come from `default_constants(r).for_s(s)`, s
    being the peeled part count, and likewise for a `cfg` whose s is unset.
    A `cfg` that names another s raises PreconditionError: its scales were
    set for that count.
    """
    n = g.n
    p.check(n)
    s = p.s
    if s < 1:
        raise PreconditionError("refinement needs at least one peeled part")
    r = n // len(p.parts[0])
    if cfg is None:
        cfg = default_constants(r)
    if cfg.s is None:
        cfg = cfg.for_s(s)
    elif cfg.s != s:
        raise PreconditionError(f"constants set s = {cfg.s}, but peeling found s = {s}")
    thin_cls, crowded_cls, cls = _classify(g, p, _grade_thresholds(cfg))
    good = GoodPartition(
        partition=p,
        classification=cls,
        thin=thin_cls,
        crowded=crowded_cls,
        rescue=_rescue_matchings(g, thin_cls),
        constants=cfg,
    )
    report = _violations(g, good)
    if report:
        raise PreconditionError("refinement stalled: " + "; ".join(report))
    return good


def _rescue_matchings(g: Graph, cls: VertexClassification) -> Tuple[Matching, ...]:
    """Disjoint matchings sending each thin off-S vertex into its part.

    `cls` is the partition's grade at beta/2, the one `GoodPartition`
    carries as `thin`.  One matching per part, whose auxiliary graph has
    only thin-to-part edges of G; `used` keeps the matchings disjoint.  A
    thin vertex already used by an earlier part's matching, or a part whose
    matching cannot cover its thin vertices, is a miss and raises
    PreconditionError.  (A4)'s rescue clauses therefore hold on every
    partition this returns for, and `_violations` does not read them.
    """
    p = cls.partition
    used = 0
    out: List[Matching] = []
    for i, part in enumerate(p.parts):
        need = cls.off_low(cls.exceptional[i])
        if used & need.bits:
            raise PreconditionError(
                "thin vertex shared between parts blocks disjoint rescue matchings"
            )
        if len(need) == 0:
            out.append(Matching(()))
            continue
        side = part.bits & ~used
        locals_ = sorted(need.members()) + sorted(iter_bits(side))
        pos = {v: i for i, v in enumerate(locals_)}
        aux = Graph.empty(len(locals_))
        for x in need.members():
            for y in iter_bits(g.adj[x] & side):
                aux.add_edge(pos[x], pos[y])
        m = covering_matching(aux, VertexSet(range(len(need))), len(need))
        if m is None:
            raise PreconditionError(
                f"no rescue matching into part {i + 1} for {len(need)} thin vertices"
            )
        pairs = tuple(sorted(tuple(sorted((locals_[u], locals_[v]))) for u, v in m.pairs))
        out.append(Matching(pairs))
        for u, v in pairs:
            used |= (1 << u) | (1 << v)
    return tuple(out)


def _within_root_budget(count: int, budget: Fraction, scale: int) -> bool:
    # count <= sqrt(budget) * scale, squared to stay in integer arithmetic.
    return count * count <= budget * scale * scale


def _violations(g: Graph, q: GoodPartition) -> List[str]:
    """The clauses (S), (A1)-(A3) and (A4)'s "crowded and thin" that q
    breaks, read on the grades q carries.  q's partition must pass its
    shape check and hold a part.  (A4)'s rescue clauses are not read:
    `_rescue_matchings` misses where it cannot meet them."""
    cls_half, cls_b, cls_ne = q.thin, q.crowded, q.classification
    cfg = q.constants
    p = q.partition
    n = g.n
    size = len(p.parts[0])
    report: List[str] = []
    if not cls_half.low_degree.issubset(p.b):
        report.append("(S) low-degree vertices stray outside the leftover block")
    for i, part in enumerate(p.parts):
        e = induced_edge_count(g, part.bits)
        if not (e * e <= cfg.alpha * n ** 4):
            report.append(f"(A1) part {i + 1} induces {e} edges")
    if len(p.b) >= 2 * size:
        found = _sparse_set(
            g, p.b.bits, size, cfg.zeta * cfg.zeta / 4, len(p.b)
        )
        if found is not None:
            report.append("(A2) leftover block still holds a sparse part")
    for i, part in enumerate(p.parts):
        if not _within_root_budget(len(cls_b.bad[i]), cfg.alpha, n):
            report.append(f"(A3) part {i + 1} has {len(cls_b.bad[i])} crowded vertices")
        # Every vertex outside the part that is not excellent toward it.
        nonexcellent = n - len(part) - len(cls_ne.excellent[i])
        if not _within_root_budget(nonexcellent, cfg.alpha, n):
            report.append(f"(A3) part {i + 1} has {nonexcellent} non-excellent vertices")
    for i in range(p.s):
        if cls_b.bad[i] and cls_half.off_low(cls_half.exceptional[i]):
            report.append(f"(A4) part {i + 1} keeps both crowded and thin vertices")
    return report
