"""Randomized absorption machinery for the dense, unstructured regime.

The route has three stages.  `build_absorbing_set` assembles a small set M
out of disjoint verified absorbers (plus cliques covering the low-degree
clique, when there is one).  `layered_greedy`, run by the decider on the
vertices outside M, tiles them greedily and improves the tiling with local
augmentation moves until only a small remainder is uncovered.  `absorb`
then folds that remainder into M, one r-set per stored absorber.
An absorber's factors, of S alone and of S with its probe, both come from
its shape and are checked as built; the decider verifies the final factor.

The sampling is seeded and reproducible: each draw lists its pool in
ascending order, so a seed fixes every absorber.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .certificates import clique_tiles_cover
from .constants import ConstantsConfig, default_constants
from .errors import InternalContradiction, PreconditionError
from .graphs import (
    Graph,
    VertexSet,
    _clique_walk,
    find_clique_of_size,
    iter_bits,
    low_degree_set,
    sigma,
)
from .matching import maximum_matching
from .oracle import LayeredFactor, Tiling, kr_factor_exact
from .partition import _sparse_set

__all__ = [
    "AbsorbingSet",
    "AugmentationMove",
    "absorb",
    "build_absorbing_set",
    "find_augmentation",
    "layered_greedy",
]


class AugmentationMove(NamedTuple):
    """One local rearrangement of a layered tiling.

    `source` grows by one vertex at the expense of `helpers`; the
    `replacements` re-tile source u helpers exactly.  Helpers are listed
    relay piece first, donor last.
    """

    source: VertexSet
    helpers: Tuple[VertexSet, ...]
    replacements: Tuple[VertexSet, ...]

    def check(self, g: Graph) -> bool:
        before = self.source.bits
        for h in self.helpers:
            if before & h.bits:
                return False
            before |= h.bits
        after = 0
        for c in self.replacements:
            if (after & c.bits) or not g.is_clique(c.bits):
                return False
            after |= c.bits
        sizes = {len(c) for c in self.replacements}
        return after == before and len(self.source) + 1 in sizes


class AbsorbingSet(NamedTuple):
    """Disjoint absorbers plus fixed cliques, with stored self-factors.

    `family[i]` is covered exactly by the cliques in `factors[i]`, the
    cliques u_i + x_i its shape gives; the `fixed` cliques mop up the
    low-degree clique when it was small enough to need protecting.  The
    whole of M factors constructively, so the only exact search left is
    absorb's, one small one per r-set and absorber.
    """

    r: int
    epsilon: Fraction
    family: Tuple[VertexSet, ...]
    factors: Tuple[Tuple[VertexSet, ...], ...]
    fixed: Tuple[VertexSet, ...]

    @property
    def m(self) -> VertexSet:
        bits = 0
        for s in self.family:
            bits |= s.bits
        for c in self.fixed:
            bits |= c.bits
        return VertexSet(bits)


def _sigma_gate(g: Graph, r: int, alpha: Fraction) -> None:
    need = 2 * (1 - Fraction(1, r) - alpha) * g.n
    st = sigma(g)
    if not st.sigma >= need:
        raise PreconditionError(
            f"degree-sum floor {st.sigma} at pair {st.witness} is below {need}"
        )


def _random_clique(
    g: Graph, rng: random.Random, pool: int, size: int
) -> Optional[int]:
    """Greedy clique on a uniform random order of the pool, drawn lazily.

    Step i swaps a uniform pick from order[i:] into place i (a front-to-back
    Fisher-Yates shuffle of the pool's vertices in ascending order), so each
    prefix is a uniform draw without replacement; the walk stops as soon as
    `size` vertices are chosen, and costs one draw per vertex looked at
    rather than one per pool vertex.  None when the whole order yields no
    `size`-clique.
    """
    if size == 0:
        return 0
    order = list(iter_bits(pool))
    end = len(order)
    chosen = 0
    count = 0
    for i in range(end):
        j = rng.randrange(i, end)
        v = order[j]
        order[j] = order[i]
        if chosen & ~g.adj[v]:
            continue
        chosen |= 1 << v
        count += 1
        if count == size:
            return chosen
    return None


def _draw_probe(rng: random.Random, avail: int, r: int) -> Optional[VertexSet]:
    """r vertices of `avail` drawn by `rng.sample`; None, with no draw, when
    it has fewer."""
    pool = list(iter_bits(avail))
    if len(pool) < r:
        return None
    return VertexSet(rng.sample(pool, r))


def _sample_absorbers(
    g: Graph,
    q: VertexSet,
    r: int,
    budget: int,
    seed: int,
    exclude: int,
    slow: int,
    exploit_clique: bool,
) -> List[Tuple[VertexSet, Tuple[VertexSet, ...]]]:
    """Sample up to `budget` verified absorbers for the r-set q, avoiding
    `exclude`, given the low-degree set `slow` and whether the base is taken
    inside it (`exploit_clique`).

    Each candidate is built from a base K_r plus, for every pair (u_i, q_i)
    of a base vertex and a q-vertex, a bridge (r-1)-clique x_i in their
    common neighborhood.  So the cliques u_i + x_i tile G[S], and the base
    and the cliques q_i + x_i tile G[S u q]: both tilings are checked as
    built, not searched for.  The base is taken inside the low-degree clique
    when that clique is large, and away from it otherwise; bridges always
    avoid it.  Each absorber S comes with its factor u_i + x_i of G[S].
    """
    base_pool = slow if exploit_clique else g.full_mask & ~slow
    base_pool &= ~q.bits & ~exclude
    bridge_pool = g.full_mask & ~slow & ~exclude

    rng = random.Random(seed * 1000003 + q.bits % (1 << 61))
    found: List[Tuple[VertexSet, Tuple[VertexSet, ...]]] = []
    seen = set()
    qs = sorted(q.members())
    for k in range(max(budget * 40, 200)):
        if len(found) >= budget:
            break
        # The bias is a sampling aid, not a correctness condition, so odd
        # rounds fall back to the whole graph.
        if k % 2 == 0:
            bpool, bridge_home = base_pool, bridge_pool
        else:
            bpool = g.full_mask & ~q.bits & ~exclude
            bridge_home = g.full_mask & ~exclude
        base = _random_clique(g, rng, bpool, r)
        if base is None:
            continue
        bases = list(iter_bits(base))
        rng.shuffle(bases)
        used = base | q.bits
        bridges = []
        for u, qv in zip(bases, qs):
            pool = g.adj[u] & g.adj[qv] & bridge_home & ~used
            x = _random_clique(g, rng, pool, r - 1)
            if x is None:
                break
            bridges.append(x)
            used |= x
        if len(bridges) < r:
            continue
        bits = base
        for x in bridges:
            bits |= x
        if bits in seen:
            continue
        seen.add(bits)
        # S absorbs Q when both G[S] and G[S u Q] have K_r-factors, and its
        # shape gives both.  The checker's own test runs on each here: the
        # decider's final check sees only the factors that the answer uses.
        own = tuple(VertexSet(x | 1 << u) for x, u in zip(bridges, bases))
        joint = [VertexSet(base)] + [VertexSet(x | 1 << qv) for x, qv in zip(bridges, qs)]
        if (
            clique_tiles_cover(g, r, own) != bits
            or clique_tiles_cover(g, r, joint) != bits | q.bits
        ):
            raise InternalContradiction("sampled absorber fails a factor its shape promises")
        found.append((VertexSet(bits), own))
    return found


def build_absorbing_set(
    g: Graph,
    r: int,
    cfg: Optional[ConstantsConfig] = None,
    seed: int = 0,
) -> Optional[AbsorbingSet]:
    """Select disjoint verified absorbers into a set M of at most 2*xi*n vertices.

    The decider calls it only after the structured route missed.  Returns
    None when a sparse n/r-set turns up (the instance belongs to that
    route) or when the sampling budget runs out before enough disjoint
    absorbers are found.  The degree-sum floor is checked outright.

    Each probe is r vertices drawn from those not yet taken
    (`_draw_probe`), and samples one absorber for them: every sample avoids
    the vertices already taken, so the first one found is always the one
    kept, and a larger budget would only sample and verify absorbers that
    are thrown away.
    """
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
        factors = []
        taken = 0
        for _ in range(8 * fam_target + 8):
            if len(picked) >= fam_target:
                break
            probe = _draw_probe(rng, probe_pool & ~taken, r)
            if probe is None:
                break
            found = _sample_absorbers(
                g, probe, r, 1, rng.randrange(1 << 30), taken, slow.bits, exploit_clique
            )
            if not found:
                continue
            s, own = found[0]
            if s.bits & taken:
                raise InternalContradiction("sampled absorber overlaps the absorbing set")
            picked.append(s)
            factors.append(own)
            taken |= s.bits
        if len(picked) < needed:
            continue

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


def absorb(g: Graph, aset: AbsorbingSet, leftover: VertexSet) -> Tiling:
    """Fold a small leftover set into M, returning a factor of M u leftover.

    Leftover r-sets are matched to distinct stored absorbers; an
    unmatched r-set raises PreconditionError, a miss of the absorption route.
    The assembly is not re-checked here: the decider verifies the factor.
    """
    r = aset.r
    m = aset.m
    if leftover.bits & m.bits:
        raise PreconditionError("leftover intersects the absorbing set")
    if (len(m) + len(leftover)) % r:
        raise PreconditionError("total size is not a multiple of r")
    if not len(leftover) <= aset.epsilon * g.n:
        raise PreconditionError(
            f"leftover of {len(leftover)} exceeds the {aset.epsilon} * n allowance"
        )

    rest = sorted(leftover.members())
    chunks = [VertexSet(rest[i : i + r]) for i in range(0, len(rest), r)]
    fam = aset.family
    aux = Graph.empty(len(chunks) + len(fam))
    # Every stored absorber's G[S] has its factor already, so S absorbs an
    # r-set Q when G[S u Q] has one; it is kept for the assembly.
    joint: Dict[Tuple[int, int], Tiling] = {}
    for i, ch in enumerate(chunks):
        for j, s in enumerate(fam):
            f = kr_factor_exact(g, r, s.bits | ch.bits)
            if f is not None:
                joint[i, j] = f
                aux.add_edge(i, len(chunks) + j)
    mm = maximum_matching(aux)
    assigned: Dict[int, int] = {}
    for u, v in mm.pairs:
        i, j = (u, v - len(chunks)) if u < len(chunks) else (v, u - len(chunks))
        assigned[i] = j
    if len(assigned) < len(chunks):
        missing = next(i for i in range(len(chunks)) if i not in assigned)
        raise PreconditionError(
            f"no unused absorber accepts the r-set {sorted(chunks[missing].members())}"
        )

    pieces: List[VertexSet] = list(aset.fixed)
    for j, s in enumerate(fam):
        if j not in assigned.values():
            pieces.extend(aset.factors[j])
    for i, j in assigned.items():
        pieces.extend(joint[i, j].cliques)
    return Tiling(r, tuple(pieces))


def find_augmentation(
    g: Graph, pieces: Sequence[VertexSet]
) -> Optional[AugmentationMove]:
    """First profile-improving move on a list of disjoint clique pieces.

    One family, a relay, tried for the largest deficient piece first: a
    helper piece swaps one of its vertices into the target and takes a
    replacement from a donor no bigger than the target.  The target grows
    by one and the donor shrinks by one, which raises the size profile
    lexicographically.
    """
    order = sorted(range(len(pieces)), key=lambda i: (-len(pieces[i]), i))
    r = max((len(p) for p in pieces), default=0)
    for ti in order:
        target = pieces[ti]
        t = len(target)
        if t >= r:
            continue
        cn_t = g.common_neighbors(target.bits)
        for hi in order:
            helper = pieces[hi]
            if hi == ti or len(helper) < 2:
                continue
            for u in iter_bits(helper.bits & cn_t):
                rest_h = helper.bits ^ (1 << u)
                cn_h = g.common_neighbors(rest_h)
                for di in order:
                    donor = pieces[di]
                    if di in (ti, hi) or len(donor) > t:
                        continue
                    grab = donor.bits & cn_h
                    if not grab:
                        continue
                    w = grab & -grab
                    repl = [
                        VertexSet(target.bits | (1 << u)),
                        VertexSet(rest_h | w),
                    ]
                    if donor.bits ^ w:
                        repl.append(VertexSet(donor.bits ^ w))
                    return AugmentationMove(target, (helper, donor), tuple(repl))
    return None


def _profile(pieces: Sequence[VertexSet], r: int) -> Tuple[int, ...]:
    out = [0] * r
    for p in pieces:
        out[r - len(p)] += 1
    return tuple(out)


def layered_greedy(g: Graph, r: int, inside: Optional[int] = None) -> LayeredFactor:
    """Greedy size-descending clique extraction plus augmentation moves.

    Tiles G[inside], all of V by default.  The greedy takes the first clique
    of each size, largest first, in one ascending pass over its lowest vertex
    (one with no clique above it has none later either); it is maximal per
    layer but not maximum.  The move loop then pushes vertices upward until
    no move applies; each is checked and must raise the profile, K_r kept.
    """
    if r < 1:
        raise PreconditionError("need r >= 1")
    pieces: List[VertexSet] = []
    mask = g.full_mask if inside is None else inside
    n = mask.bit_count()
    for size in range(r, 0, -1):
        for v in iter_bits(mask):
            if mask >> v & 1:
                above = g.adj[v] & mask >> v + 1 << v + 1
                c = next(_clique_walk(g.adj, 1 << v, size - 1, above), None) if size > 1 else 1 << v
                if c is not None:
                    pieces.append(VertexSet(c))
                    mask &= ~c

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
