"""Seed cliques and the tiling built on top of them.

The extremal route covers a graph with r-cliques in two stages.  First a thin
layer of *seeds*: tiny cliques (or pairs of cliques) whose common neighborhood
stays fat toward every block of the partition, planted so that every vertex
with an unusual degree pattern sits inside one.  A pair seed holds low-degree
thin vertices beside a companion edge of a part, or plants the part edge that
repairs the leftover block's parity; any other non-excellent part vertex gets
no seed, and the route misses.  Each seed then grows into one or two full
r-cliques through its common neighborhood.  What remains is block-respecting
and dense, so the leftover block can be tiled by small cliques and the rest
finished as a balanced multipartite factor: every final clique joins one unit
per block, a vertex of each part and one small clique of the leftover block,
all found on the input graph itself.  Sub-problems are vertex masks of that
graph: cliques come from `graphs.iter_cliques` and the leftover block's pairs
from the blossom search on its mask.

A seed's slack is an exact rational, the largest margin by which its
neighborhood inequalities hold, and `base_slack` measures it on demand: a
seed is usable when its slack is positive.  Seeds carry no stamped margin,
and the two covers return plain tuples of seeds.  Desk-sized instances
certify with modest slack; the asymptotic constants only enter as relaxable
size gates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .certificates import clique_tiles_cover
from .errors import InternalContradiction, PreconditionError
from .graphs import (
    Graph,
    VertexSet,
    connected_components,
    find_clique_of_size,
    iter_bits,
    iter_cliques,
)
from .matching import maximum_matching
from .oracle import Tiling
from .partition import GoodPartition, RsPartition

__all__ = [
    "SingleBase",
    "DoubleBase",
    "Base",
    "base_slack",
    "cover_exceptional",
    "cover_nonexcellent",
    "extend_base",
    "strip_tiling",
    "contract_residual",
    "multipartite_factor",
    "parity_repair",
]


# ---------------------------------------------------------------------------
# seed types


class SingleBase(NamedTuple):
    """One clique kept well connected to every block it does not overfill."""

    clique: VertexSet

    @property
    def vertices(self) -> VertexSet:
        return self.clique


class DoubleBase(NamedTuple):
    """Two disjoint cliques that each overfill one block by a single vertex.

    `heavy_left` and `heavy_right` name the overfilled blocks, as a part index
    or None for the leftover block; they must differ.  Growing the pair trades
    the surplus between the two blocks, which is what makes these seeds useful
    when a lone clique cannot keep its quota.
    """

    left: VertexSet
    right: VertexSet
    heavy_left: Optional[int]
    heavy_right: Optional[int]

    @property
    def vertices(self) -> VertexSet:
        return self.left | self.right


Base = Union[SingleBase, DoubleBase]


# ---------------------------------------------------------------------------
# context helpers


def _context(g: Graph, q: GoodPartition) -> Tuple[RsPartition, int, int, int]:
    """(partition, n, r, s); refinement checked q's shape and gave it a part."""
    p = q.partition
    n = g.n
    r = n // len(p.parts[0])
    return p, n, r, p.s


def _blocks(p: RsPartition, r: int) -> List[Tuple[Optional[int], int, int]]:
    """(key, mask, quota) per block; quota is the per-clique share."""
    out: List[Tuple[Optional[int], int, int]] = [
        (i, part.bits, 1) for i, part in enumerate(p.parts)
    ]
    out.append((None, p.b.bits, r - p.s))
    return out


# ---------------------------------------------------------------------------
# seed margins


# distinct from None, which names the leftover block
_ABSENT = object()


def _caps(g: Graph, n: int, r: int, mask: int, blocks, relax) -> Optional[Fraction]:
    """Largest margin the neighborhood inequalities allow for one clique.

    `relax` marks the block whose bound is loosened by one extra quota step
    (the partner's overfilled block in a pair seed); pass _ABSENT for lone
    seeds.  None means the occupancy caps themselves fail.
    """
    m = n // r
    common = g.common_neighbors(mask)
    best: Optional[Fraction] = None
    for key, bmask, quota in blocks:
        cnt = (mask & bmask).bit_count()
        if cnt > quota:
            return None
        steps = cnt + (2 if relax is not _ABSENT and key == relax else 1)
        lhs = (common & bmask).bit_count()
        cap = Fraction(lhs - bmask.bit_count() + steps * m, n)
        if best is None or cap < best:
            best = cap
    return best


def base_slack(g: Graph, q: GoodPartition, b: Base) -> Optional[Fraction]:
    """Exact largest slack at which `b` qualifies, or None if it never does."""
    p, n, r, _ = _context(g, q)
    blocks = _blocks(p, r)
    if isinstance(b, SingleBase):
        if not g.is_clique(b.clique.bits):
            return None
        return _caps(g, n, r, b.clique.bits, blocks, relax=_ABSENT)
    if b.heavy_left == b.heavy_right:
        return None
    if b.left.bits & b.right.bits:
        return None
    best: Optional[Fraction] = None
    for mask, heavy, other in (
        (b.left.bits, b.heavy_left, b.heavy_right),
        (b.right.bits, b.heavy_right, b.heavy_left),
    ):
        if not g.is_clique(mask):
            return None
        # the named block must be overfilled by exactly one vertex
        for key, bmask, quota in blocks:
            cnt = (mask & bmask).bit_count()
            if key == heavy:
                if cnt != quota + 1:
                    return None
            elif cnt > quota:
                return None
        shifted = [
            (key, bmask, quota + 1 if key == heavy else quota)
            for key, bmask, quota in blocks
        ]
        cap = _caps(g, n, r, mask, shifted, relax=other)
        if cap is None:
            return None
        if best is None or cap < best:
            best = cap
    return best


def _has_margin(g: Graph, q: GoodPartition, b: Base) -> bool:
    sl = base_slack(g, q, b)
    return sl is not None and sl > 0


# ---------------------------------------------------------------------------
# covering the thin-degree vertices


def _odd_split(reason: str) -> PreconditionError:
    """The thin cover's miss: the instance is tangled like the odd split."""
    return PreconditionError(f"thin cover signalled the odd split: {reason}")


def _companions(
    g: Graph,
    q: GoodPartition,
    part_index: int,
    need: int,
    rescue_all: int,
    used: int,
) -> Tuple[List[int], int]:
    """`need` edges inside the given part, each a pair seed's companion.

    The edges join calm rows, those neither crowded in the part nor spoken
    for by a rescue matching, lowest vertex first.
    """
    pmask = q.partition.parts[part_index].bits
    out: List[int] = []
    allowed = pmask & ~q.crowded.bad[part_index].bits & ~used & ~rescue_all
    for u in iter_bits(allowed):
        if len(out) == need:
            break
        vc = g.adj[u] & allowed & ~((1 << (u + 1)) - 1)
        if vc:
            v = (vc & -vc).bit_length() - 1
            built = (1 << u) | (1 << v)
            out.append(built)
            used |= built
            allowed &= ~built
    if len(out) < need:
        raise _odd_split(
            f"part {part_index}: not enough companion edges for its thin rows"
        )
    return out, used


def cover_exceptional(g: Graph, q: GoodPartition) -> Tuple[Base, ...]:
    """Vertex-disjoint seeds holding every vertex thin toward some part.

    Low-degree thin vertices are packed into small cliques completed inside
    the leftover block, each paired with a companion to form a pair seed.
    The remaining thin vertices keep their rescue edges as lone seeds.  Any
    structural failure is a miss of the route, not a bug: it raises
    PreconditionError, since an instance this tangled is left to the
    odd-split recognizers; so is a partition with no leftover block.
    """
    p, n, r, s = _context(g, q)
    if s >= r:
        raise PreconditionError(f"{s} parts against r={r} leave no leftover block")
    thin = q.thin
    ve = q.classification.excellent_everywhere().bits
    low = q.low_degree.bits
    bmask = p.b.bits
    rescue_all = 0
    for mt in q.rescue:
        rescue_all |= mt.covered.bits

    obligations = 0
    for i in range(s):
        obligations |= thin.exceptional[i].bits

    bases: List[Base] = []
    used = 0
    chunk = r - s + 1
    for i in range(s):
        exc = thin.exceptional[i].bits
        exs = exc & low
        if not exs:
            continue
        if not g.is_clique(exs):
            raise _odd_split(f"part {i}: low-degree thin set is not a clique")
        verts = sorted(iter_bits(exs))
        groups: List[int] = []
        for lo in range(0, len(verts), chunk):
            gmask = 0
            for v in verts[lo : lo + chunk]:
                gmask |= 1 << v
            groups.append(gmask)
        packed: List[int] = []
        for gmask in groups:
            short = chunk - gmask.bit_count()
            if short:
                cand = g.common_neighbors(gmask) & bmask & ve & ~used
                sub = find_clique_of_size(g, short, inside=cand)
                if sub is None:
                    raise _odd_split(
                        f"part {i}: cannot complete a thin clique in the leftover block"
                    )
                gmask |= sub.bits
            packed.append(gmask)
            used |= gmask
        comps, used = _companions(g, q, i, len(packed), rescue_all, used)
        for gmask, cmask in zip(packed, comps):
            db = DoubleBase(VertexSet(gmask), VertexSet(cmask), None, i)
            if not _has_margin(g, q, db):
                raise _odd_split(
                    f"part {i}: thin-clique pairing fails the margin check"
                )
            bases.append(db)
            used |= gmask | cmask
    # surviving rescue edges stand alone; each holds one thin vertex
    for j in range(s):
        exc = thin.exceptional[j].bits & ~low
        for u, v in q.rescue[j].pairs:
            em = (1 << u) | (1 << v)
            if em & used:
                if exc & em & ~used:
                    raise _odd_split(f"part {j}: a rescue edge lost its thin endpoint")
                continue
            sb = SingleBase(VertexSet(em))
            if not _has_margin(g, q, sb):
                raise _odd_split(f"part {j}: rescue edge fails the margin check")
            bases.append(sb)
            used |= em
    if obligations & ~used:
        raise _odd_split("a thin vertex was left uncovered")
    return tuple(bases)


# ---------------------------------------------------------------------------
# covering the remaining non-excellent vertices


def cover_nonexcellent(g: Graph, q: GoodPartition, u: VertexSet) -> Tuple[Base, ...]:
    """Vertex-disjoint seeds holding every vertex that is neither excellent
    everywhere nor thin, outside `u`.

    `u` holds vertices already spoken for; targets inside `u` count as
    covered by the caller.  Each target in the leftover block gets a lone
    seed: itself and an (r - s - 1)-clique of excellent leftover vertices
    in its neighbourhood.  A target inside a part is a miss: peeled parts
    are near-independent, so it has no partner there to pair with.  So is
    running out of candidates, or a partition with no leftover block; each
    raises PreconditionError.  A seed that fails its margin check is a bug
    and raises InternalContradiction.
    """
    p, n, r, s = _context(g, q)
    if s >= r:
        raise PreconditionError(f"{s} parts against r={r} leave no leftover block")
    if len(u) ** 4 > (4 * r) ** 4 * q.constants.alpha * n**4:
        raise PreconditionError("avoid set too large for the cover")
    vex = 0
    for i in range(s):
        vex |= q.thin.exceptional[i].bits
    ve = q.classification.excellent_everywhere().bits
    targets = g.full_mask & ~ve & ~vex & ~u.bits
    bmask = p.b.bits
    inside = targets & ~bmask
    if inside:
        v = (inside & -inside).bit_length() - 1
        raise PreconditionError(f"vertex {v}: non-excellent inside part {p.part_of(v)}")

    bases: List[Base] = []
    used = u.bits
    for v in iter_bits(targets):
        cand = g.adj[v] & bmask & ve & ~used
        sub = find_clique_of_size(g, r - s - 1, inside=cand)
        if sub is None:
            raise PreconditionError(f"vertex {v}: leftover block too thin around it")
        sb = SingleBase(VertexSet((1 << v) | sub.bits))
        if not _has_margin(g, q, sb):
            raise InternalContradiction(f"vertex {v}: leftover seed fails the margin check")
        bases.append(sb)
        used |= sb.clique.bits
    return tuple(bases)


# ---------------------------------------------------------------------------
# growing a seed into full cliques


def _units(
    q: GoodPartition, r: int, h: Base
) -> List[Tuple[int, Dict[Optional[int], int]]]:
    """Per clique of the seed: (core mask, vertices still needed per block)."""
    p = q.partition
    blocks = _blocks(p, r)
    out: List[Tuple[int, Dict[Optional[int], int]]] = []
    if isinstance(h, SingleBase):
        plan = ((h.clique.bits, _ABSENT, _ABSENT),)
    else:
        plan = (
            (h.left.bits, h.heavy_left, h.heavy_right),
            (h.right.bits, h.heavy_right, h.heavy_left),
        )
    for mask, heavy, other in plan:
        need: Dict[Optional[int], int] = {}
        for key, bmask, quota in blocks:
            target = quota
            if heavy is not _ABSENT and key == heavy:
                target = quota + 1
            elif other is not _ABSENT and key == other:
                target = quota - 1
            have = (mask & bmask).bit_count()
            if have > target:
                raise PreconditionError(
                    "seed already exceeds the block share its twin must give up"
                )
            if target > have:
                need[key] = target - have
        out.append((mask, need))
    return out


def _grow(
    g: Graph,
    p: RsPartition,
    ve: int,
    core: int,
    need: Dict[Optional[int], int],
    forbid: int,
) -> Tuple[Optional[int], Optional[int]]:
    """Complete one clique through its common neighborhood.

    Leftover-block vertices come first as one clique, then parts in order of
    scarcest candidate pool.  Returns (clique, None) or (None, stuck block).
    """
    cur = core
    nb = need.get(None, 0)
    if nb:
        cand = g.common_neighbors(cur) & p.b.bits & ve & ~forbid
        sub = find_clique_of_size(g, nb, inside=cand)
        if sub is None:
            return None, None
        cur |= sub.bits
    pending = [k for k, c in need.items() if k is not None for _ in range(c)]
    while pending:
        best_key = None
        best_cand = 0
        best_count = 0
        for k in set(pending):
            cand = g.common_neighbors(cur) & p.parts[k].bits & ve & ~forbid
            cnt = cand.bit_count()
            if cnt == 0:
                return None, k
            if best_key is None or cnt < best_count or (cnt == best_count and k < best_key):
                best_key, best_cand, best_count = k, cand, cnt
        pick = (best_cand & -best_cand).bit_length() - 1
        cur |= 1 << pick
        pending.remove(best_key)
    return cur, None


def extend_base(g: Graph, q: GoodPartition, h: Base, w: VertexSet) -> Tiling:
    """Grow a seed into one or two full r-cliques avoiding `w`.

    The seed must have positive slack (`base_slack`); the covers and
    `parity_repair` check that where they make the seed.  The result keeps
    exact block balance: each grown clique takes its block share, with the
    pair seed trading one vertex between its two overfilled blocks.
    Running out of candidates is a miss and raises
    PreconditionError naming the block that ran dry; grown cliques that
    break block balance raise InternalContradiction.  `_run` checks the
    cliques with the final factor.
    """
    p, n, r, s = _context(g, q)
    cfg = q.constants
    if len(w) ** 4 > (5 * r) ** 4 * cfg.alpha * n**4:
        raise PreconditionError("avoid set too large for the extension")
    if w.bits & h.vertices.bits:
        raise PreconditionError("avoid set touches the seed")
    ve = q.classification.excellent_everywhere().bits
    units = _units(q, r, h)
    forbid = w.bits
    for mask, _ in units:
        forbid |= mask
    grown: List[int] = []
    for mask, need in units:
        got, stuck = _grow(g, p, ve, mask, need, forbid)
        if got is None:
            where = "leftover block" if stuck is None else f"part {stuck}"
            raise PreconditionError(f"no candidates left in the {where}")
        grown.append(got)
        forbid |= got
    cliques = tuple(VertexSet(c) for c in grown)
    count = len(cliques)
    for key, bmask, quota in _blocks(p, r):
        got_here = sum((c.bits & bmask).bit_count() for c in cliques)
        if got_here != count * quota:
            raise InternalContradiction("grown cliques break block balance")
    return Tiling(r, cliques)


# ---------------------------------------------------------------------------
# residual contraction


def strip_tiling(p: RsPartition, t: Tiling) -> RsPartition:
    """The partition with every tiled vertex removed."""
    cov = t.covered
    return RsPartition(tuple(a - cov for a in p.parts), p.b - cov)


def contract_residual(
    g: Graph, p: RsPartition, ts: Tiling
) -> Tuple[Tuple[int, ...], ...]:
    """The units of the multipartite finish, as vertex masks of g, per block.

    Each part of `p` gives its vertices as single-vertex units, ascending;
    the last block holds the cliques of `ts`, a tiling of the leftover block,
    in tiling order.  The blocks are validated here, not in
    `multipartite_factor`: they must be disjoint, the parts of one nonzero
    size, and `ts` must cover the leftover block exactly, without overlap,
    by as many cliques as a part has vertices.  The decider, not this
    step, checks that its cliques are cliques.
    """
    if not p.parts:
        raise PreconditionError("need at least one part to contract against")
    sizes = {len(a) for a in p.parts}
    if len(sizes) != 1 or 0 in sizes:
        raise PreconditionError("parts must share one nonzero size")
    if len(ts.cliques) not in sizes:
        raise PreconditionError("parts must be balanced")
    seen = 0
    for a in p.parts + (p.b,):
        if seen & a.bits:
            raise PreconditionError("partition blocks overlap")
        seen |= a.bits
    if ts.covered != p.b or sum(map(len, ts.cliques)) != len(p.b):
        raise PreconditionError("tiling is not a factor of the leftover block")
    blocks = [tuple(1 << v for v in iter_bits(a.bits)) for a in p.parts]
    blocks.append(tuple(c.bits for c in ts.cliques))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# balanced multipartite factor


def multipartite_factor(g: Graph, blocks: Sequence[Sequence[int]]) -> Optional[Tiling]:
    """Cliques of g that each join one unit of every block.

    `blocks` holds disjoint vertex masks of g, the units, the same number
    per block and of one size within a block.  `contract_residual`, which
    builds them, validates the blocks; this step does not.  One
    deterministic pass, block by block in the given order: partial cliques
    meet the next block's units through a bipartite matching, where a
    partial clique P meets unit U when P lies in the common neighborhood
    N(U) of U.  Above the cross-degree threshold of (1 - 1/2k) of a block
    the pass always lands; below it the routine is best-effort: a layer
    matching that comes up short returns None, with no second pass.  Units
    that are cliques of g join into cliques of g, as a partial clique meets
    a unit only inside N(U); the decider checks the answer, not this step.
    Each layer matching reads the blossom search's greedy seed lazily
    (`_layer_matching`); only a short seed builds the layer graph, one
    subset test per clique and unit, and runs `maximum_matching` on it.
    """
    k = len(blocks)
    if k == 0:
        raise PreconditionError("need at least one part")
    m = len(blocks[0])
    if m == 0:
        return Tiling(k, ())
    r = sum(block[0].bit_count() for block in blocks)
    cliques = list(blocks[0])
    for block in blocks[1:]:
        pairs = _layer_matching(cliques, [g.common_neighbors(u) for u in block])
        if len(pairs) < m:
            return None
        for ci, ui in pairs:
            cliques[ci] |= block[ui]
    return Tiling(r, tuple(VertexSet(c) for c in cliques))


def _layer_matching(cliques: List[int], commons: List[int]) -> List[Tuple[int, int]]:
    """A maximum matching of the layer graph, as (clique, unit) index pairs
    in ascending clique order.

    `maximum_matching`'s greedy seed gives each clique, in ascending order,
    the lowest free unit whose common neighborhood holds it.  That seed is
    read here one subset test at a time.  When it covers every clique no
    vertex is left exposed, so the blossom search would augment nothing and
    return exactly these pairs.  Only a short seed builds the layer graph:
    clique ci at vertex ci, unit ui at m + ui, joined when the clique lies
    inside the unit's common neighborhood.
    """
    free = list(range(len(commons)))
    pairs = []
    for ci, c in enumerate(cliques):
        for j, ui in enumerate(free):
            if not c & ~commons[ui]:
                pairs.append((ci, ui))
                del free[j]
                break
        else:
            m = len(cliques)
            adj = [0] * (2 * m)
            for cj, cm in enumerate(cliques):
                for ui, common in enumerate(commons):
                    if not cm & ~common:
                        adj[cj] |= 1 << (m + ui)
                        adj[m + ui] |= 1 << cj
            mm = maximum_matching(Graph(2 * m, adj))
            return [(a, b - m) for a, b in mm.pairs]
    return pairs


# ---------------------------------------------------------------------------
# parity repair


# Candidate tilings `parity_repair` checks before it gives out.
REPAIR_BUDGET = 600


def _pair_tiling(g: Graph, mask: int) -> Optional[Tiling]:
    """A perfect matching of G[mask] as a tiling by pairs, or None.

    A component of G[mask] with an odd number of vertices, which an odd
    mask always has, rules a perfect matching out (Tutte, 1947), so such a
    mask returns None after one component scan, before any blossom search.
    The leftover blocks that `parity_repair` first tries are often of this
    kind.
    """
    if any(len(c) % 2 for c in connected_components(g, mask)):
        return None
    mm = maximum_matching(g, mask)
    if 2 * mm.size != mask.bit_count():
        return None
    return Tiling(2, tuple(VertexSet((1 << u) | (1 << v)) for u, v in mm.pairs))


def parity_repair(g: Graph, q: GoodPartition, tiling: Tiling) -> Tuple[Tiling, Tiling]:
    """Adjust the tiling until the leftover block admits a perfect matching.

    Only meaningful when the leftover block tiles by pairs.  Returns the
    seed tiling, unchanged when its leftover block already matches, together
    with that leftover block's tiling by pairs, so no caller has to match
    the block again.  The search makes one bounded move, at most
    REPAIR_BUDGET candidates: it keeps `tiling` and plants one fresh pair
    seed on an edge inside a part, which `extend_base` grows once this step
    has checked that its slack is positive.  A candidate is accepted only
    when its cliques are disjoint r-cliques of G, by the checker's
    `clique_tiles_cover`.  Running out of candidates is a miss of the route,
    not an error, and raises PreconditionError; an InternalContradiction
    propagates.
    """
    p, n, r, s = _context(g, q)
    if r - s != 2:
        raise PreconditionError("repair applies only when the leftover tiles by pairs")
    bmask = p.b.bits
    pairs = _pair_tiling(g, bmask & ~tiling.covered.bits)
    if pairs is not None:
        return tiling, pairs
    ve = q.classification.excellent_everywhere().bits
    thin = q.thin
    obligations = g.full_mask & ~ve
    for i in range(s):
        obligations |= thin.exceptional[i].bits

    def leftover_pairs(t2: Tiling) -> Optional[Tiling]:
        # The leftover block's pair tiling when t2 is an acceptable repair.
        cov = clique_tiles_cover(g, r, t2.cliques)
        if cov is None or obligations & ~cov:
            return None
        psizes = {(a.bits & ~cov).bit_count() for a in p.parts}
        if len(psizes) > 1:
            return None
        return _pair_tiling(g, bmask & ~cov)

    def candidates() -> Iterator[Tiling]:
        # plant a fresh pair seed on an edge inside a part
        tcov = tiling.covered.bits
        for i, part in enumerate(p.parts):
            free_part = part.bits & ~tcov
            for uv in islice(iter_cliques(g, 2, free_part), 64):
                wc = g.common_neighbors(uv) & bmask & ve & ~tcov
                for wv in islice(iter_bits(wc), 8):
                    left = uv | (1 << wv)
                    pool = bmask & ve & ~tcov & ~left
                    for alt in islice(iter_cliques(g, r - s + 1, pool), 24):
                        h2 = DoubleBase(VertexSet(left), VertexSet(alt), i, None)
                        if not _has_margin(g, q, h2):
                            continue
                        try:
                            ext = extend_base(g, q, h2, VertexSet(tcov))
                        except PreconditionError:
                            continue
                        yield Tiling(r, tiling.cliques + ext.cliques)

    for cand in islice(candidates(), REPAIR_BUDGET):
        pairs = leftover_pairs(cand)
        if pairs is not None:
            return cand, pairs
    raise PreconditionError(
        "parity repair gave out: no reachable tiling leaves a matchable leftover block"
    )
