"""Top-level decisions for K_r-factors and equitable k-colorings.

The two sides are tied together by complementation: a graph has an equitable
k-coloring exactly when the complement of its padded form splits into k
cliques of equal size.  Every positive answer ships with a certificate that
is re-verified against the input graph before it leaves this module, every
structural NO ships with a witness that re-verifies, and anything the
pipeline cannot settle within its exact-search caps is reported as
unresolved rather than guessed.  At r = 2 the question is perfect matching,
which the blossom search settles at every size: a YES is the matching, a NO
its Tutte–Berge barrier.  Sub-problems (the vertices outside the absorbing
set, a leftover block, the units of the multipartite finish) are vertex
masks of the input graph, so every clique found is already in its labels.

At r >= 3 absorption runs first and the structured route second.  A route
that gives out because its constants do not carry at this n raises
PreconditionError; the decision catches only that, records the message as
a note and tries the next route.  An InternalContradiction is a bug, never
a miss, and propagates to the caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from .absorbing import AbsorptionFailure, absorb, build_absorbing_set, layered_greedy
from .constants import ConstantsConfig, default_constants
from .errors import InternalContradiction, PreconditionError
from .extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    Ex2Witness,
    find_biclique,
    recognize_extremal,
)
from .graphs import (
    Graph,
    VertexSet,
    complement,
    find_clique_of_size,
    ore_edge_bound,
)
from .matching import TutteBarrier, pm_or_structure
from .oracle import Coloring, Tiling, equitable_coloring_exact, kr_factor_exact
from .partition import peel_partition, refine_to_good
from .tiling import (
    BaseSet,
    contract_residual,
    cover_exceptional,
    cover_nonexcellent,
    extend_base,
    multipartite_factor,
    parity_repair,
    strip_tiling,
)

__all__ = [
    "EXACT_CAP",
    "FALLBACK_CAP",
    "DecisionCertificate",
    "coloring_obstruction",
    "decide_equitable",
    "decide_kr_factor",
    "lift_coloring",
    "pad_to_divisible",
]

# Exact search is the ground truth below this size; the full labeled sweep at
# n <= 7 has to clear in minutes, which this cap comfortably allows.
EXACT_CAP = 24

# When the structured pipeline gives out, instances up to this size fall back
# to the exact search instead of returning unresolved.
FALLBACK_CAP = 48


@dataclass(frozen=True)
class DecisionCertificate:
    """Outcome of one decision call.

    `kind` is one of "factorable", "colorable", "obstructed", "exact", or
    "unresolved".  The first two carry a verified positive certificate; an
    obstructed answer carries a verified witness; "exact" is a negative
    answer proved by exhaustive search, with no witness a reader can check;
    "unresolved" means the instance is beyond both the pipeline and the
    exact caps, and `answer` is None.
    """

    kind: str
    answer: Optional[bool]
    certificate: Optional[Union[Tiling, Coloring]]
    witness: Optional[object]
    provenance: str
    verified: bool
    notes: Tuple[str, ...] = ()
    timings: Tuple[Tuple[str, float], ...] = ()


def pad_to_divisible(g: Graph, k: int) -> Tuple[Graph, int]:
    """Append a clique on q = (-n) mod k fresh vertices, joined to nothing.

    The clique forces its vertices into distinct color classes, so the padded
    graph is equitably k-colorable exactly when the original is, and every
    edge degree sum is unchanged.
    """
    if k < 1 or k > max(g.n, 1):
        raise PreconditionError(f"k={k} outside [1, n] for n={g.n}")
    q = (-g.n) % k
    if q == 0:
        return g, 0
    padded = Graph.empty(g.n + q)
    for v in range(g.n):
        padded.adj[v] = g.adj[v]
    for u in range(g.n, g.n + q):
        for v in range(u + 1, g.n + q):
            padded.add_edge(u, v)
    return padded, q


def lift_coloring(t: Tiling, q: int, k: int, g: Optional[Graph] = None) -> Coloring:
    """Turn a clique factor of the padded complement into a k-coloring.

    Each clique of the complement is an independent set of the padded graph;
    dropping the at-most-one padding vertex per clique leaves classes whose
    sizes differ by at most one.  With `g` supplied the result is checked to
    be a proper equitable coloring and a failure raises loudly.
    """
    if len(t.cliques) != k:
        raise PreconditionError(f"expected {k} cliques, got {len(t.cliques)}")
    n_padded = t.r * k
    n = n_padded - q
    if q < 0 or q >= k:
        raise PreconditionError(f"padding count {q} outside [0, k)")
    pad_bits = ((1 << n_padded) - 1) & ~((1 << n) - 1)
    classes: List[VertexSet] = []
    dropped = 0
    for c in t.cliques:
        inside = c.bits & pad_bits
        if inside.bit_count() > 1:
            raise InternalContradiction("two padding vertices share a class")
        dropped += inside.bit_count()
        classes.append(VertexSet(c.bits & ~pad_bits))
    if dropped != q:
        raise InternalContradiction(f"dropped {dropped} padding vertices, expected {q}")
    coloring = Coloring(tuple(classes))
    if g is not None and not coloring.verify(g):
        raise InternalContradiction("lifted coloring failed verification")
    return coloring


def coloring_obstruction(g: Graph, k: int) -> Optional[Union[CliqueObstruction, BicliqueObstruction]]:
    """A verified K_{k+1} subgraph, or an odd K_{m,2k-m} spanning G, or None.

    The clique is tried first.  Bicliques prove a NO only when they cover
    all of V, so they are scanned, over odd m up to k, only when n = 2k.  A
    None answer is a failed search, not a proof of absence.
    """
    hit = find_clique_of_size(g, k + 1)
    if hit is not None:
        w = CliqueObstruction(hit)
        if not w.verify(g, k):
            raise InternalContradiction("clique obstruction failed verification")
        return w
    if g.n != 2 * k:
        return None
    for m in range(1, k + 1, 2):
        pair = find_biclique(g, m, 2 * k - m)
        if pair is not None:
            w = BicliqueObstruction(pair[0], pair[1])
            if not w.verify(g, k):
                raise InternalContradiction("biclique obstruction failed verification")
            return w
    return None


def _verified_witness(g: Graph, r: int, w) -> Optional[object]:
    if w is None:
        return None
    return w if w.verify(g, r) else None


def _factor_by_oracle(g: Graph, r: int) -> DecisionCertificate:
    t = kr_factor_exact(g, r)
    if t is not None:
        if not t.verify(g):
            raise InternalContradiction("oracle factor failed verification")
        return DecisionCertificate("factorable", True, t, None, "oracle", True)
    w = _verified_witness(g, r, recognize_extremal(g, r))
    if w is not None:
        return DecisionCertificate("obstructed", False, None, w, "oracle", True)
    return DecisionCertificate("exact", False, None, None, "oracle", True)


def _factor_r2(g: Graph) -> DecisionCertificate:
    out = pm_or_structure(g)
    if isinstance(out, TutteBarrier):
        return DecisionCertificate("obstructed", False, None, out, "pipeline", True)
    t = Tiling(2, tuple(VertexSet([u, v]) for u, v in out.pairs))
    if not t.verify(g):
        raise InternalContradiction("perfect matching failed verification")
    return DecisionCertificate("factorable", True, t, None, "pipeline", True)


def _absorption_factor(g: Graph, r: int, cfg: ConstantsConfig, seed: int) -> Tiling:
    """Factor via the absorbing set: greedy cover outside M, absorb the rest."""
    last = "no absorbing set could be built"
    for attempt in range(3):
        aset = build_absorbing_set(g, r, cfg=cfg, seed=seed + attempt)
        if aset is None:
            raise PreconditionError(last)
        outside = g.full_mask & ~aset.m.bits
        greedy = Tiling(r, layered_greedy(g, r, outside).layers.get(r, ()))
        leftover = VertexSet(outside & ~greedy.covered.bits)
        if len(leftover) > cfg.epsilon * g.n:
            raise PreconditionError(
                f"greedy cover left {len(leftover)} vertices, beyond the absorbable budget"
            )
        try:
            finish = absorb(g, aset, leftover)
        except AbsorptionFailure as e:
            last = str(e)
            continue
        final = Tiling(r, greedy.cliques + finish.cliques)
        if not final.verify(g):
            raise InternalContradiction("assembled factor failed verification")
        return final
    raise PreconditionError(f"absorption retries exhausted: {last}")


def _block_tiling(g: Graph, block: VertexSet, d: int) -> Optional[Tiling]:
    """Tile `block` by d-cliques, d != 2: singly at d = 1, else by exact search.

    Pairs are tiled by `parity_repair`, which matches the block itself.
    """
    if d > 1 and (len(block) > FALLBACK_CAP or len(block) % d):
        return None
    return kr_factor_exact(g, d, block.bits)


def _structured_factor(g: Graph, r: int, cfg: ConstantsConfig) -> Union[Tiling, Ex1Witness]:
    """The extremal-side pipeline: partition, seed, grow, repair, then join
    the parts and the leftover block's cliques into a multipartite factor.

    A stage that gives out because the constants do not carry at this n
    raises PreconditionError, a miss of the route.  An InternalContradiction,
    from a stage or from the final check of the tiling, is a bug and
    propagates.
    """
    p, s = peel_partition(g, r, cfg)
    if s == 0:
        raise PreconditionError("no sparse parts peeled")
    got, _trace = refine_to_good(g, p, cfg)
    if isinstance(got, Ex1Witness):
        return got
    gp = got
    p = gp.partition
    s = p.s
    d = r - s
    if d <= 0:
        raise PreconditionError(f"partition peeled {s} parts against r={r}")

    bs1 = cover_exceptional(g, gp)
    spoken = bs1.vertices() | bs1.covered
    bs2 = cover_nonexcellent(g, gp, spoken)
    bases = tuple(bs1.bases) + tuple(bs2.bases)
    baseset = BaseSet(bases, bs1.covered | bs2.covered)
    all_seeds = baseset.vertices()

    cliques: List[VertexSet] = []
    used = VertexSet(0)
    for h in bases:
        avoid = (all_seeds - h.vertices) | used
        t = extend_base(g, gp, h, avoid)
        cliques.extend(t.cliques)
        used = used | t.covered
    seed_tiling = Tiling(r, tuple(cliques))

    if d == 2:
        seed_tiling, ts = parity_repair(g, gp, baseset, seed_tiling)
        resid = strip_tiling(p, seed_tiling)
    else:
        resid = strip_tiling(p, seed_tiling)
        ts = _block_tiling(g, resid.b, d)
        if ts is None:
            raise PreconditionError("leftover block admits no clique tiling")

    mf = multipartite_factor(g, contract_residual(g, resid, ts))
    if mf is None:
        raise PreconditionError("contracted multipartite instance would not factor")
    final = Tiling(r, seed_tiling.cliques + mf.cliques)
    if not final.verify(g):
        raise InternalContradiction("pipeline tiling failed final verification")
    return final


def decide_kr_factor(
    g: Graph,
    r: int,
    cfg: Optional[ConstantsConfig] = None,
    seed: int = 0,
) -> DecisionCertificate:
    """Does G split into n/r vertex-disjoint copies of K_r?

    Strategy ladder: the trivial cases (n = 0 or r = 1); at r = 2 the
    perfect-matching decision, whose NO is obstructed by a Tutte–Berge
    barrier; then, at r >= 3, the structural recognizers, exact search up to
    EXACT_CAP vertices, then the dense absorption route and the extremal
    pipeline in turn.  When both miss, n <= FALLBACK_CAP falls back to exact
    search; beyond that the honest output is kind="unresolved".
    """
    if r < 1:
        raise PreconditionError(f"r={r} must be positive")
    if g.n % r != 0:
        raise PreconditionError(f"r={r} does not divide n={g.n}")
    timings: List[Tuple[str, float]] = []
    t0 = time.perf_counter()

    if g.n == 0 or r == 1:
        t = kr_factor_exact(g, r) if g.n else Tiling(r, ())
        assert t is not None
        return DecisionCertificate("factorable", True, t, None, "oracle", True)

    if r == 2:
        cert = _factor_r2(g)
        return replace(cert, timings=(("matching", time.perf_counter() - t0),))

    w = _verified_witness(g, r, recognize_extremal(g, r))
    if w is not None and isinstance(w, Ex2Witness):
        # The odd split is an exact-match recognizer, so this costs little
        # and settles the hardest family outright.
        return DecisionCertificate("obstructed", False, None, w, "recognizer", True)
    timings.append(("recognize", time.perf_counter() - t0))

    if g.n <= EXACT_CAP:
        t0 = time.perf_counter()
        cert = _factor_by_oracle(g, r)
        timings.append(("oracle", time.perf_counter() - t0))
        return replace(cert, timings=tuple(timings))

    cfg = cfg or default_constants(r)

    if w is not None:
        # An exact independent set beyond the clique count is conclusive at
        # any size once verified.
        return DecisionCertificate("obstructed", False, None, w, "recognizer", True)

    notes: List[str] = []
    routes = (
        ("absorption", "absorption", lambda: _absorption_factor(g, r, cfg, seed)),
        ("structured", "pipeline", lambda: _structured_factor(g, r, cfg)),
    )
    for route, stage, run in routes:
        t0 = time.perf_counter()
        got = None
        try:
            got = run()
        except PreconditionError as e:
            notes.append(f"{route} route: {e}")
        timings.append((stage, time.perf_counter() - t0))
        if isinstance(got, Ex1Witness):
            return DecisionCertificate(
                "obstructed", False, None, got, "pipeline", True,
                tuple(notes), tuple(timings),
            )
        if got is not None:
            return DecisionCertificate(
                "factorable", True, got, None, "pipeline", True,
                tuple(notes), tuple(timings),
            )

    if g.n <= FALLBACK_CAP:
        t0 = time.perf_counter()
        cert = _factor_by_oracle(g, r)
        timings.append(("oracle", time.perf_counter() - t0))
        return replace(cert, notes=tuple(notes) + cert.notes, timings=tuple(timings))
    return DecisionCertificate(
        "unresolved", None, None, None, "pipeline", False,
        tuple(notes) + ("instance beyond the exact fallback cap",),
        tuple(timings),
    )


def _translate_obstruction(g: Graph, k: int, w: object) -> Optional[CliqueObstruction]:
    """Map a complement-side witness onto a subgraph witness in G.

    Only the independent set carries over, as a clique.  The odd split's
    clique pair would become a biclique on 2k of the at least 2k + 1
    vertices (an odd split needs r >= 3), which proves nothing.
    """
    if isinstance(w, Ex1Witness):
        cand = CliqueObstruction(w.independent_set)
        if cand.verify(g, k):
            return cand
    return None


def decide_equitable(
    g: Graph,
    k: int,
    cfg: Optional[ConstantsConfig] = None,
    seed: int = 0,
) -> DecisionCertificate:
    """Does G have a proper k-coloring with class sizes within one?

    Pads to divisibility, complements, decides the clique-factor question,
    and lifts the answer back.  Negative answers try to surface a K_{k+1} or
    odd K_{m,2k-m} subgraph witness in G itself; the witness hunt is skipped
    above the fallback cap.  The edge degree-sum bound is reported in the
    notes but never required.
    """
    if k < 1:
        raise PreconditionError(f"k={k} must be positive")
    notes: List[str] = []
    ok, worst = ore_edge_bound(g, k)
    if ok:
        notes.append("edge degree-sum bound holds")
    else:
        assert worst is not None
        notes.append(
            f"edge degree-sum bound fails at {worst}; dichotomy guarantee lapses"
        )

    if k >= g.n:
        col = equitable_coloring_exact(g, k)
        assert col is not None and col.verify(g)
        return DecisionCertificate(
            "colorable", True, col, None, "oracle", True, tuple(notes)
        )

    padded, q = pad_to_divisible(g, k)

    # Between the caps the delegate would fall through to an exact clique
    # search on padded.n vertices.  Colouring the source graph settles the
    # same question at the smaller scale, so take that road directly.
    if padded.n > EXACT_CAP and g.n <= FALLBACK_CAP:
        t0 = time.perf_counter()
        col = equitable_coloring_exact(g, k)
        timings = (("oracle", time.perf_counter() - t0),)
        if col is not None:
            assert col.verify(g)
            return DecisionCertificate(
                "colorable", True, col, None, "oracle", True, tuple(notes),
                timings,
            )
        witness = coloring_obstruction(g, k)
        if witness is not None:
            return DecisionCertificate(
                "obstructed", False, None, witness, "oracle", True,
                tuple(notes), timings,
            )
        return DecisionCertificate(
            "exact", False, None, None, "oracle", True,
            tuple(notes) + ("no subgraph witness surfaced",), timings,
        )

    comp = complement(padded)
    r = padded.n // k
    cert = decide_kr_factor(comp, r, cfg, seed)

    if cert.answer is True:
        assert isinstance(cert.certificate, Tiling)
        coloring = lift_coloring(cert.certificate, q, k, g)
        return DecisionCertificate(
            "colorable", True, coloring, None, cert.provenance, True,
            tuple(notes), cert.timings,
        )
    if cert.answer is False:
        witness = _translate_obstruction(g, k, cert.witness)
        if witness is None and g.n <= FALLBACK_CAP:
            witness = coloring_obstruction(g, k)
        if witness is not None:
            return DecisionCertificate(
                "obstructed", False, None, witness, cert.provenance, True,
                tuple(notes), cert.timings,
            )
        return DecisionCertificate(
            "exact", False, None, None, cert.provenance, cert.verified,
            tuple(notes) + ("no subgraph witness surfaced",), cert.timings,
        )
    return DecisionCertificate(
        "unresolved", None, None, None, cert.provenance, False,
        tuple(notes) + cert.notes, cert.timings,
    )
