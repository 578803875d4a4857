"""Top-level decisions for K_r-factors and equitable k-colorings.

The two sides are tied together by complementation: a graph has an equitable
k-coloring exactly when the complement of its padded form splits into k
cliques of equal size.  A positive answer ships with a certificate, a
structural NO with a witness, and anything the polynomial routes cannot
settle beyond the exact-search cap is reported as unresolved rather than
guessed.  Answers are checked in one place: `_run` checks each against the
input graph with `certificates.verify_certificate`, the checker that
`equitiler verify` runs, before it leaves this module; the routes do not
re-check their own.  At r = 2 the question is perfect matching, which the
blossom search settles at every size: a YES is the matching, a NO its
Tutte–Berge barrier.  Procedure P (`equitable.equitable_attempt`) runs
as the `equitable` step of each table: on G padded to a multiple of k
ahead of the exact colouring search, and on the complement of H at
k = n/r, whose classes are the factor, as the factor table's last step
before unresolved.  Where P is stuck it misses, and `_run` checks the
classes it returns like any answer.  The factor table's gate is the
Hajnal–Szemerédi theorem: when every vertex of H has degree at least
n - n/r, the complement has maximum degree below k = n/r, so its
equitable k-colouring, the factor, exists.  Under the gate the table
skips the steps the theorem makes moot: the recognizer could find no
witness of a NO, and the structured route and the exact search could
only re-derive the YES.  So the `equitable` step answers, and a stuck P
there is a bug, which `equitable_attempt` raises.  The colouring side
reaches the gate through its delegate, since padding adds a clique on
q < k vertices, of degree below k.  The structured route builds the
factor of the paper's extremal case, an input with a sparse n/r-set: it
answers YES or misses, since the extremal NO shapes are the recognizer's,
which runs first.  It misses at once unless the block left beside the
peeled parts tiles by pairs or single vertices.  The paper takes the
other case by absorption, and the factor table gives it to the
`equitable` step instead.  Sub-problems (a leftover block, the units of
the multipartite finish) are vertex masks of the input graph, so every
clique found is already in its labels.

Each mode is one ordered table of steps `(route, stage, run)`, run by
`_run`: the first step to return a certificate decides.  Tables are built
per call, so a name patched in this module (by a tracer, say) is seen.  A
step whose `run` is None does not apply to the input.  `run` returns None
when it settles nothing, and raises PreconditionError when its route gives
out: its constants do not carry at this n, or procedure P is stuck.
`_run` catches only that and keeps the message as the note
"{route} route: ...".  A step that runs is timed under its stage, if it
names one.  An
InternalContradiction is a bug, never a miss, and propagates to the
caller.  So is an answer that fails its check: `_run` raises
InternalContradiction with the checker's clauses.  `decide_kr_factor` and
`decide_equitable` list their steps.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .certificates import DecisionCertificate, verify_certificate
from .constants import ConstantsConfig
from .equitable import equitable_attempt
from .errors import InternalContradiction, PreconditionError
from .extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    _few_degrees,
    _recognize_ex2,
    find_biclique,
    recognize_extremal,
)
from .graphs import (
    Graph,
    VertexSet,
    complement,
    connected_components,
    find_clique_of_size,
    iter_bits,
    ore_edge_bound,
)
from .matching import TutteBarrier, pm_or_structure
from .oracle import Coloring, Tiling, equitable_coloring_exact, kr_factor_exact
from .partition import peel_partition, refine_to_good
from .tiling import (
    Base,
    contract_residual,
    cover_exceptional,
    cover_nonexcellent,
    extend_base,
    multipartite_factor,
    parity_repair,
    strip_tiling,
)

__all__ = [
    "FALLBACK_CAP",
    "DecisionCertificate",
    "coloring_obstruction",
    "decide_equitable",
    "decide_kr_factor",
    "lift_coloring",
    "pad_to_divisible",
]

# When the polynomial routes give out, instances up to this size fall back to
# the exact search instead of returning unresolved.
FALLBACK_CAP = 48


def _yes(payload: Union[Tiling, Coloring], provenance: str) -> DecisionCertificate:
    kind = "colorable" if isinstance(payload, Coloring) else "factorable"
    return DecisionCertificate(kind, True, payload, None, provenance, True)


def _no(witness: Optional[object], provenance: str, notes: Tuple[str, ...] = ()) -> DecisionCertificate:
    """An obstructed NO with its verified witness, else a NO proved by search."""
    kind = "exact" if witness is None else "obstructed"
    return DecisionCertificate(kind, False, None, witness, provenance, True, notes)


_UNRESOLVED = DecisionCertificate(
    "unresolved", None, None, None, "pipeline", False,
    ("instance beyond the exact fallback cap",),
)

# A step of a decision table: route name for notes, stage name for timings
# (None: the step reports its own timings, or none), and the call.
_Step = Tuple[str, Optional[str], Optional[Callable[[], Optional[DecisionCertificate]]]]


def _run(
    g: Graph, mode: str, value: int, steps: Tuple[_Step, ...], notes: List[str]
) -> DecisionCertificate:
    """The first certificate a step returns, after the notes and timings so far.

    Every certificate is checked on G by `verify_certificate` in `mode`
    ("factor" or "coloring") at `value` (r or k) before it is returned; one
    with any clause is a bug of its route and raises InternalContradiction.
    """
    timings: List[Tuple[str, float]] = []
    for route, stage, run in steps:
        if run is None:
            continue
        t0 = time.perf_counter()
        cert = None
        try:
            cert = run()
        except PreconditionError as e:
            notes.append(f"{route} route: {e}")
        if stage is not None:
            timings.append((stage, time.perf_counter() - t0))
        if cert is not None:
            clauses = verify_certificate(g, cert, mode, value)
            if clauses:
                raise InternalContradiction(
                    f"{route} route answer failed verification: {'; '.join(clauses)}"
                )
            # Built directly: the record's `_replace` costs twice as much,
            # and the exact workload's calls take about 0.2 ms each.
            return DecisionCertificate(
                cert.kind, cert.answer, cert.certificate, cert.witness, cert.provenance,
                cert.verified, tuple(notes) + cert.notes, tuple(timings) + cert.timings,
            )
    raise InternalContradiction("no step of the decision table answered")


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
    pad = ((1 << (g.n + q)) - 1) ^ g.full_mask
    return Graph(g.n + q, g.adj + [pad ^ (1 << v) for v in range(g.n, g.n + q)]), q


def lift_coloring(t: Tiling, q: int, k: int) -> Coloring:
    """Turn a clique factor of the padded complement into a k-coloring.

    Each clique of the complement is an independent set of the padded graph;
    dropping the at-most-one padding vertex per clique leaves classes whose
    sizes differ by at most one.
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
    return Coloring(tuple(classes))


def coloring_obstruction(g: Graph, k: int) -> Optional[Union[CliqueObstruction, BicliqueObstruction]]:
    """A K_{k+1} subgraph, or an odd K_{m,2k-m} spanning G, or None.

    `_run` checks the witness with the rest of the answer.  The clique is
    tried first.  Bicliques prove a NO only when they cover all of V, so
    they are scanned, over odd m up to k, only when n = 2k.  A None answer
    is a failed search, not a proof of absence.
    """
    hit = find_clique_of_size(g, k + 1)
    if hit is not None:
        return CliqueObstruction(hit)
    if g.n != 2 * k:
        return None
    for m in range(1, k + 1, 2):
        pair = find_biclique(g, m, 2 * k - m)
        if pair is not None:
            return BicliqueObstruction(pair[0], pair[1])
    return None


def _paper_obstruction(g: Graph, k: int) -> Optional[DecisionCertificate]:
    """The NO the paper names under the edge bound, found by a linear scan,
    or None.  Call it only when every edge xy has d(x) + d(y) <= 2k.

    Every edge of a K_{k+1} or of a K_{m,2k-m} already sums to at least 2k,
    so under the bound neither has an edge leaving it: a K_{k+1} is a whole
    component, and a K_{m,2k-m} on n = 2k vertices is G itself: vertex 0's
    side is its non-neighbours, and the other side its neighbours.  Both
    are the witnesses `coloring_obstruction` returns: the clique of the
    lowest vertex, and the smaller side first, or vertex 0's side on a tie.
    """
    for comp in connected_components(g):
        if len(comp) == k + 1 and g.is_clique(comp.bits):
            return _no(CliqueObstruction(comp), "recognizer")
    if g.n != 2 * k:
        return None
    b = g.adj[0]
    a = g.full_mask ^ b
    if a.bit_count() % 2 == 0 or any(g.adj[v] != b for v in iter_bits(a)):
        return None
    if a.bit_count() > b.bit_count():
        a, b = b, a
    return _no(BicliqueObstruction(VertexSet(a), VertexSet(b)), "recognizer")


def _factor_r2(g: Graph) -> DecisionCertificate:
    out = pm_or_structure(g)
    if isinstance(out, TutteBarrier):
        return _no(out, "pipeline")
    pairs = tuple(VertexSet((1 << u) | (1 << v)) for u, v in out.pairs)
    return _yes(Tiling(2, pairs), "pipeline")


def _equitable_factor(g: Graph, r: int) -> DecisionCertificate:
    """The factor from procedure P on the complement at k = n/r, at any
    degree; a stuck procedure misses, or raises a bug under the gate."""
    classes = equitable_attempt(complement(g).adj, g.n // r)
    return _yes(Tiling(r, tuple(VertexSet(c) for c in classes)), "pipeline")


def _equitable_coloring(g: Graph, k: int) -> DecisionCertificate:
    """An equitable k-colouring of G, k < n, from procedure P at any degree.

    P runs on G padded by `pad_to_divisible`: a clique on q < k fresh
    vertices.  Each class holds at most one of them, so dropping them
    leaves class sizes within one.  A stuck procedure raises
    PreconditionError, a miss.
    """
    padded, _ = pad_to_divisible(g, k)
    pad = padded.full_mask ^ g.full_mask
    classes = equitable_attempt(padded.adj, k)
    return _yes(Coloring(tuple(VertexSet(c & ~pad) for c in classes)), "pipeline")


def _vertices_of(seeds: Sequence[Base]) -> VertexSet:
    bits = 0
    for h in seeds:
        bits |= h.vertices.bits
    return VertexSet(bits)


def _structured_factor(g: Graph, r: int, cfg: Optional[ConstantsConfig]) -> DecisionCertificate:
    """The extremal-side pipeline: partition, seed, grow, repair, then join
    the parts and the leftover block's cliques into a multipartite factor.
    It answers YES or misses, and never NO: the NO shapes of the extremal
    case are the recognizer's, which runs first.

    Refinement grades the peeled partition once and returns it, with no
    vertex moved, as a good partition, or misses.  The two covers return
    tuples of seeds; the vertices of the first cover's seeds are spoken for
    when the second runs, and each seed grows in turn away from every other
    seed and from the cliques grown so far.  The leftover block B tiles by
    d = r - s cliques: by pairs at d = 2, through parity repair, which keeps
    the grown cliques and makes one attempt to plant a pair seed beside
    them; by its single vertices at d = 1.  Any other d is a miss, raised
    as soon as peeling fixes s: no exact search runs inside the route for
    d >= 3, and at d = 0 no leftover block is left to tile.

    A stage that gives out because the constants do not carry at this n
    raises PreconditionError, a miss of the route.  An InternalContradiction
    from a stage is a bug and propagates.
    """
    p, s = peel_partition(g, r, cfg)
    if s == 0:
        raise PreconditionError("no sparse parts peeled")
    d = r - s
    if d == 0:
        raise PreconditionError(f"{s} parts against r={r} leave no leftover block")
    if d >= 3:
        raise PreconditionError(f"leftover block needs an exact search for its K_{d}-tiling")
    gp = refine_to_good(g, p, cfg)

    thin_seeds = cover_exceptional(g, gp)
    bases = thin_seeds + cover_nonexcellent(g, gp, _vertices_of(thin_seeds))
    all_seeds = _vertices_of(bases)

    cliques: List[VertexSet] = []
    used = VertexSet(0)
    for h in bases:
        avoid = (all_seeds - h.vertices) | used
        t = extend_base(g, gp, h, avoid)
        cliques.extend(t.cliques)
        used = used | t.covered
    seed_tiling = Tiling(r, tuple(cliques))

    if d == 2:
        seed_tiling, ts = parity_repair(g, gp, seed_tiling)
        resid = strip_tiling(p, seed_tiling)
    else:
        resid = strip_tiling(p, seed_tiling)
        ts = Tiling(1, tuple(VertexSet(1 << v) for v in iter_bits(resid.b.bits)))

    mf = multipartite_factor(g, contract_residual(g, resid, ts))
    if mf is None:
        raise PreconditionError("contracted multipartite instance would not factor")
    return _yes(Tiling(r, seed_tiling.cliques + mf.cliques), "pipeline")


def decide_kr_factor(
    g: Graph,
    r: int,
    cfg: Optional[ConstantsConfig] = None,
) -> DecisionCertificate:
    """Does G split into n/r vertex-disjoint copies of K_r?

    The steps, in order (route: when it runs, what it answers):
      trivial     n = 0 or r = 1: exact search, the empty factor or the
                  singletons;
      matching    r = 2: the perfect matching, or its Tutte–Berge barrier;
      recognizer  the odd split or an n/r + 1 independent set, a NO with
                  its witness;
      structured  the extremal pipeline, on an input with a sparse
                  n/r-set to peel and a leftover block that tiles by
                  pairs or single vertices: a YES or a miss;
      oracle      n <= FALLBACK_CAP: exact search;
      equitable   procedure P on the complement at k = n/r; its classes
                  are the factor;
      unresolved  the honest answer when that misses too.
    The gate, at r >= 3: every row of H has at least n - n/r bits, so the
    factor exists (Hajnal–Szemerédi).  Under it the recognizer, the
    structured route and the oracle are skipped, and `equitable` answers.
    """
    if r < 1:
        raise PreconditionError(f"r={r} must be positive")
    if g.n % r != 0:
        raise PreconditionError(f"r={r} does not divide n={g.n}")
    need = g.n - g.n // r
    gated = r >= 3 and all(row.bit_count() >= need for row in g.adj)

    def recognize() -> Optional[DecisionCertificate]:
        # The odd split is an exact-match recognizer, so this costs little and
        # settles the hardest family outright; an independent set beyond the
        # clique count is conclusive at any size.
        w = recognize_extremal(g, r)
        return None if w is None else _no(w, "recognizer")

    def oracle() -> DecisionCertificate:
        t = kr_factor_exact(g, r)
        return _no(None, "oracle") if t is None else _yes(t, "oracle")

    steps: Tuple[_Step, ...] = (
        ("trivial", "oracle", oracle if g.n == 0 or r == 1 else None),
        ("matching", "matching", (lambda: _factor_r2(g)) if r == 2 else None),
        ("recognizer", "recognize", None if gated else recognize),
        ("structured", "pipeline", None if gated else lambda: _structured_factor(g, r, cfg)),
        ("oracle", "oracle", oracle if g.n <= FALLBACK_CAP and not gated else None),
        ("equitable", "equitable", lambda: _equitable_factor(g, r)),
        ("unresolved", None, lambda: _UNRESOLVED),
    )
    return _run(g, "factor", r, steps, [])


def _coloring_no(witness: Optional[object], provenance: str) -> DecisionCertificate:
    """A colouring NO with `witness`, else one noting that none surfaced."""
    if witness is None:
        return _no(None, provenance, ("no subgraph witness surfaced",))
    return _no(witness, provenance)


def _color_exactly(g: Graph, k: int, hunt: bool) -> DecisionCertificate:
    """Exact colouring search; a NO hunts for a witness in G if `hunt`."""
    col = equitable_coloring_exact(g, k)
    if col is not None:
        return _yes(col, "oracle")
    return _coloring_no(coloring_obstruction(g, k) if hunt else None, "oracle")


def _color_by_factor(g: Graph, k: int, cfg: Optional[ConstantsConfig]) -> DecisionCertificate:
    """Decide the clique factor of the padded complement and carry it back.

    A YES lifts to a colouring of G.  Of a NO's witness only an independent
    set carries over, as a clique: the odd split's clique pair would become
    a biclique on 2k of the at least 2k + 1 vertices, which proves nothing.
    The clique holds no padding vertex: the q < k padding vertices form a
    clique joined to nothing else, so no K_{k+1} of the padded graph meets
    them.  Both drop the factor side's notes and keep its timings; an
    unresolved answer comes back whole.
    """
    padded, q = pad_to_divisible(g, k)
    cert = decide_kr_factor(complement(padded), padded.n // k, cfg)
    if cert.answer is None:
        return cert
    if cert.answer:
        out = _yes(lift_coloring(cert.certificate, q, k), cert.provenance)
    else:
        w = cert.witness
        clique = CliqueObstruction(w.independent_set) if isinstance(w, Ex1Witness) else None
        out = _coloring_no(clique, cert.provenance)
    return out._replace(timings=cert.timings)


def decide_equitable(
    g: Graph,
    k: int,
    cfg: Optional[ConstantsConfig] = None,
) -> DecisionCertificate:
    """Does G have a proper k-coloring with class sizes within one?

    The steps, in order:
      obstruction under the edge bound (every edge xy has d(x) + d(y) <=
                  2k), at any n: a component that is K_{k+1}, or, at
                  n = 2k, G itself a K_{m,2k-m} with m odd; a linear scan,
                  untimed;
      recognizer  where the oracle step runs on n = rk with r >= 3: the
                  complement of G is an odd split, a NO the exact colouring
                  search would reach only after exponential time (its
                  clique pair carries no witness over to G);
      equitable   where the oracle step runs and k < n: procedure P on G
                  padded to a multiple of k, the padding dropped from
                  its classes; stuck under Δ(G) < k, it raises a bug;
      oracle      k >= n or n <= FALLBACK_CAP: exact colouring of G, which
                  settles what the factor table's own fallback would on
                  the padded complement, without the padding;
      delegate    beyond the cap, the factor table on the complement of G
                  padded to divisibility, its answer carried back to G;
                  when Δ(G) < k that table's gate holds, and its
                  `equitable` step runs procedure P on padded G.
    An oracle NO hunts for a K_{k+1} or odd K_{m,2k-m} subgraph of G when
    the edge bound fails.  Under the bound the obstruction step's scan is
    complete: every edge of either subgraph sums to at least 2k, so a
    K_{k+1} is a whole component and a spanning K_{m,2k-m} is G itself.
    The recognizer's G, r - 2 disjoint K_k and a K_{s,2k-s}, always meets
    the bound, so its NO never hunts.  The edge degree-sum bound is
    reported in the notes; only the obstruction step requires it.
    """
    if k < 1:
        raise PreconditionError(f"k={k} must be positive")
    notes: List[str] = []
    ok, worst = ore_edge_bound(g, k)
    if ok:
        notes.append("edge degree-sum bound holds")
    else:
        notes.append(
            f"edge degree-sum bound fails at {worst}; dichotomy guarantee lapses"
        )
    exact = k >= g.n or g.n <= FALLBACK_CAP

    def recognize() -> Optional[DecisionCertificate]:
        if not _few_degrees(g) or _recognize_ex2(complement(g), g.n // k) is None:
            return None
        return _coloring_no(None, "recognizer")

    # Only an unpadded G can be an odd split's complement.  In a padded
    # complement the q < k padding vertices miss only each other.  In an odd
    # split (m = k) a vertex of an m-part misses the m - 1 >= q others of
    # its part, and a vertex of the clique pair misses the whole other side:
    # padding on the small side misses 2m - s >= m vertices, and padding on
    # the large side would need the small side to be padding too.
    odd_split = exact and g.n % k == 0 and g.n >= 3 * k
    steps: Tuple[_Step, ...] = (
        ("obstruction", None, (lambda: _paper_obstruction(g, k)) if ok else None),
        ("recognizer", "recognize", recognize if odd_split else None),
        ("equitable", "equitable",
         (lambda: _equitable_coloring(g, k)) if exact and k < g.n else None),
        ("oracle", "oracle", (lambda: _color_exactly(g, k, not ok)) if exact else None),
        ("delegate", None, lambda: _color_by_factor(g, k, cfg)),
    )
    return _run(g, "coloring", k, steps, notes)
