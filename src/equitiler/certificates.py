"""Decision outcomes: the record, its JSON form, and its one checker.

`DecisionCertificate` lives here, beside the checker.  The schema is
versioned so stored certificates stay readable: every document carries
`schema: "equitiler.certificate/1"`.  Deserialization rebuilds the typed
objects; `verify_certificate` re-checks an outcome against a graph from
scratch, trusting nothing but the input edges, so a tampered or stale
certificate is caught loudly.  The decider runs the same check on every
answer before it returns it, and `equitiler verify` runs it on a stored one.

Witness types: an independent set (Ex1) and the odd split (Ex2) block a
K_r-factor; a Tutte–Berge barrier blocks a K_2-factor (a perfect matching);
a K_{k+1} clique, or an odd biclique K_{m,2k-m} whose sides cover all 2k
vertices, blocks an equitable k-coloring.  A NO of kind "exact" carries no
witness: it yields no clause, and callers that report on it must say it
went unchecked.  A NO of any kind other than "obstructed" or "exact" is a
clause of its own, and so is an obstructed NO whose witness is not one of
the types above.

Each payload type has one check here (`tiling_holds` and the rest).  It
reads only `g.n`, `g.adj` and the payload's masks, walks a mask with its
own loop, and uses nothing of the solver but the record types.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import PreconditionError
from .extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    Ex2Witness,
)
from .graphs import Graph, VertexSet
from .matching import TutteBarrier
from .oracle import Coloring, Tiling

__all__ = [
    "SCHEMA",
    "DecisionCertificate",
    "certificate_from_json",
    "certificate_to_json",
    "biclique_holds",
    "clique_holds",
    "clique_tiles_cover",
    "coloring_holds",
    "independent_set_holds",
    "odd_split_holds",
    "payload_clauses",
    "tiling_holds",
    "tutte_barrier_holds",
    "verify_certificate",
    "vertex_sets_from_json",
]

SCHEMA = "equitiler.certificate/1"


class DecisionCertificate(NamedTuple):
    """Outcome of one decision call.

    `kind` is one of "factorable", "colorable", "obstructed", "exact", or
    "unresolved".  The first two carry a verified positive certificate; an
    obstructed answer carries a verified witness; "exact" is a negative
    answer proved by exhaustive search, with no witness a reader can check;
    "unresolved" means the polynomial routes gave out on an instance beyond
    the exact fallback cap, and `answer` is None.
    """

    kind: str
    answer: Optional[bool]
    certificate: Optional[Union[Tiling, Coloring]]
    witness: Optional[object]
    provenance: str
    verified: bool
    notes: Tuple[str, ...] = ()
    timings: Tuple[Tuple[str, float], ...] = ()


def _enc_sets(sets) -> List[List[int]]:
    return [sorted(s.members()) for s in sets]


def _dec_set(row) -> VertexSet:
    if not isinstance(row, list) or any(not isinstance(v, int) or v < 0 for v in row):
        raise PreconditionError(f"vertex list expected, got {row!r}")
    if len(set(row)) != len(row):
        raise PreconditionError(f"repeated vertex in {row!r}")
    return VertexSet(row)


def vertex_sets_from_json(rows) -> Tuple[VertexSet, ...]:
    """Decode a bare list-of-lists payload (a tiling or a coloring)."""
    if not isinstance(rows, list):
        raise PreconditionError(f"list of vertex lists expected, got {type(rows).__name__}")
    return tuple(_dec_set(row) for row in rows)


def _encode_payload(obj) -> Optional[Dict[str, object]]:
    if obj is None:
        return None
    if isinstance(obj, Tiling):
        return {"type": "tiling", "r": obj.r, "cliques": _enc_sets(obj.cliques)}
    if isinstance(obj, Coloring):
        return {"type": "coloring", "classes": _enc_sets(obj.classes)}
    if isinstance(obj, Ex1Witness):
        return {"type": "independent-set", "vertices": sorted(obj.independent_set.members())}
    if isinstance(obj, Ex2Witness):
        return {
            "type": "odd-split",
            "a_parts": _enc_sets(obj.a_parts),
            "b0": sorted(obj.b0.members()),
            "b1": sorted(obj.b1.members()),
        }
    if isinstance(obj, CliqueObstruction):
        return {"type": "clique", "vertices": sorted(obj.vertices.members())}
    if isinstance(obj, BicliqueObstruction):
        return {
            "type": "biclique",
            "side_a": sorted(obj.side_a.members()),
            "side_b": sorted(obj.side_b.members()),
        }
    if isinstance(obj, TutteBarrier):
        return {"type": "tutte-barrier", "vertices": sorted(obj.vertices.members())}
    raise PreconditionError(f"cannot serialize payload of type {type(obj).__name__}")


def _decode_payload(doc) -> Optional[object]:
    if doc is None:
        return None
    if not isinstance(doc, dict) or "type" not in doc:
        raise PreconditionError("payload must be a dict with a type tag")
    kind = doc["type"]
    try:
        if kind == "tiling":
            return Tiling(int(doc["r"]), tuple(_dec_set(c) for c in doc["cliques"]))
        if kind == "coloring":
            return Coloring(tuple(_dec_set(c) for c in doc["classes"]))
        if kind == "independent-set":
            return Ex1Witness(_dec_set(doc["vertices"]))
        if kind == "odd-split":
            return Ex2Witness(
                tuple(_dec_set(p) for p in doc["a_parts"]),
                _dec_set(doc["b0"]),
                _dec_set(doc["b1"]),
            )
        if kind == "clique":
            return CliqueObstruction(_dec_set(doc["vertices"]))
        if kind == "biclique":
            return BicliqueObstruction(_dec_set(doc["side_a"]), _dec_set(doc["side_b"]))
        if kind == "tutte-barrier":
            return TutteBarrier(_dec_set(doc["vertices"]))
    except (KeyError, TypeError, ValueError) as e:
        raise PreconditionError(f"malformed {kind} payload: {e}") from e
    raise PreconditionError(f"unknown payload type {kind!r}")


def certificate_to_json(cert: DecisionCertificate) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "kind": cert.kind,
        "answer": cert.answer,
        "certificate": _encode_payload(cert.certificate),
        "witness": _encode_payload(cert.witness),
        "provenance": cert.provenance,
        "verified": cert.verified,
        "notes": list(cert.notes),
        "timings": {stage: seconds for stage, seconds in cert.timings},
    }


def certificate_from_json(doc: Dict[str, object]) -> DecisionCertificate:
    if not isinstance(doc, dict):
        raise PreconditionError("certificate document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise PreconditionError(f"unsupported schema {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in ("factorable", "colorable", "obstructed", "exact", "unresolved"):
        raise PreconditionError(f"unknown certificate kind {kind!r}")
    answer = doc.get("answer")
    if answer is not None and not isinstance(answer, bool):
        raise PreconditionError(f"answer must be true/false/null, got {answer!r}")
    timings = doc.get("timings") or {}
    if not isinstance(timings, dict):
        raise PreconditionError("timings must be an object")
    if not all(type(v) in (int, float) for v in timings.values()):
        raise PreconditionError("timings must map stages to numbers of seconds")
    notes = doc.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(x, str) for x in notes):
        raise PreconditionError("notes must be a list of strings")
    return DecisionCertificate(
        kind=str(kind),
        answer=answer,
        certificate=_decode_payload(doc.get("certificate")),
        witness=_decode_payload(doc.get("witness")),
        provenance=str(doc.get("provenance", "")),
        verified=bool(doc.get("verified", False)),
        notes=tuple(notes),
        timings=tuple((str(k), float(v)) for k, v in timings.items()),
    )


def clique_tiles_cover(g: Graph, r: int, cliques: Sequence[VertexSet]) -> Optional[int]:
    """The mask `cliques` cover when they are disjoint r-cliques of g, else None."""
    seen = 0
    for c in cliques:
        bits = rest = c.bits
        if bits.bit_count() != r or seen & bits or bits >> g.n:
            return None
        while rest:
            low = rest & -rest
            if (g.adj[low.bit_length() - 1] | low) & bits != bits:
                return None
            rest ^= low
        seen |= bits
    return seen


def _independent_cover(g: Graph, classes: Sequence[VertexSet]) -> Optional[int]:
    """The mask `classes` cover when they are disjoint independent sets of g, else None."""
    seen = 0
    for c in classes:
        bits = rest = c.bits
        if seen & bits or bits >> g.n:
            return None
        while rest:
            low = rest & -rest
            if g.adj[low.bit_length() - 1] & bits:
                return None
            rest ^= low
        seen |= bits
    return seen


def tiling_holds(g: Graph, t: Tiling) -> bool:
    """Whether t's cliques are disjoint K_{t.r}'s of g that cover V."""
    return clique_tiles_cover(g, t.r, t.cliques) == (1 << g.n) - 1


def coloring_holds(g: Graph, c: Coloring) -> bool:
    """Whether c's classes are independent sets of g that partition V."""
    return _independent_cover(g, c.classes) == (1 << g.n) - 1


def independent_set_holds(g: Graph, w: Ex1Witness, r: int) -> bool:
    """Whether w holds n/r + 1 independent vertices of g, one more than a K_r-factor's cliques."""
    if g.n % r or w.independent_set.bits.bit_count() != g.n // r + 1:
        return False
    return _independent_cover(g, (w.independent_set,)) is not None


def odd_split_holds(g: Graph, w: Ex2Witness, r: int) -> bool:
    """Whether g is the odd split on w's sets, m = n/r: r - 2 parts of m vertices and
    sides of odd sizes s <= m and 2m - s that cover V.  Each row equals its reference:
    a part's vertex sees all but its part, a side's all but itself and the other side."""
    n = g.n
    if len(w.a_parts) != r - 2:
        return False
    m, full = n // r, (1 << n) - 1
    parts = [p.bits for p in w.a_parts]
    b0, b1 = w.b0.bits, w.b1.bits
    s = b0.bit_count()
    sizes = [p.bit_count() for p in parts] + [s + b1.bit_count()]
    if s % 2 == 0 or s > m or sizes != [m] * (r - 2) + [2 * m]:
        return False
    seen = b0 | b1
    for p in parts:
        seen |= p
    if seen != full:  # r * m <= n vertices in all: r divides n, and the sets are disjoint
        return False
    for mask, miss in zip(parts + [b0, b1], parts + [b1, b0]):
        rest = mask
        while rest:
            low = rest & -rest
            if g.adj[low.bit_length() - 1] != full ^ (miss | low):
                return False
            rest ^= low
    return True


def clique_holds(g: Graph, w: CliqueObstruction, k: int) -> bool:
    """Whether w holds k + 1 pairwise adjacent vertices of g."""
    return clique_tiles_cover(g, k + 1, (w.vertices,)) is not None


def biclique_holds(g: Graph, w: BicliqueObstruction, k: int) -> bool:
    """Whether w's sides, the smaller one odd, cover V's 2k vertices, with
    every cross edge in g; a vertex on both sides would need a loop."""
    a, b = sorted((w.side_a.bits, w.side_b.bits), key=int.bit_count)
    if a | b != (1 << g.n) - 1 or a.bit_count() % 2 == 0 or g.n != 2 * k:
        return False
    while a:
        low = a & -a
        if b & ~g.adj[low.bit_length() - 1]:
            return False
        a ^= low
    return True


def tutte_barrier_holds(g: Graph, w: TutteBarrier, r: int) -> bool:
    """Whether r = 2 and G - U, for U the barrier's vertices, has more odd
    components than U has vertices; each grows from its lowest vertex."""
    u = w.vertices.bits
    if r != 2 or u >> g.n:
        return False
    rest = ((1 << g.n) - 1) ^ u
    odd = 0
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            hit = g.adj[low.bit_length() - 1] & rest & ~comp
            comp |= hit
            frontier ^= low | hit
        rest ^= comp
        odd += comp.bit_count() & 1
    return odd > u.bit_count()


# Each payload type that can witness a NO (a tiling or a colouring cannot),
# with the mode it blocks, its check and the clause a failed check gives.
_WITNESSES = {
    Ex1Witness: ("factor", independent_set_holds, "independent set does not block the factor"),
    Ex2Witness: ("factor", odd_split_holds, "odd-split witness does not match the graph"),
    CliqueObstruction: ("coloring", clique_holds, "clique witness fails"),
    BicliqueObstruction: ("coloring", biclique_holds, "biclique witness fails"),
    TutteBarrier: ("factor", tutte_barrier_holds,
                   "Tutte barrier fails: it needs r = 2 and more odd components than vertices"),
}


def payload_clauses(g: Graph, obj, k_or_r: int, mode: str) -> List[str]:
    """Clause list from re-verifying one payload object against g.  A
    witness counts only in the mode `_WITNESSES` gives it."""
    out: List[str] = []
    if isinstance(obj, Tiling):
        if obj.r != k_or_r:
            out.append(f"tiling is of K_{obj.r}, expected K_{k_or_r}")
        if not tiling_holds(g, obj):
            out.append("tiling is not a clique factor of the graph")
    elif isinstance(obj, Coloring):
        if len(obj.classes) != k_or_r:
            out.append(f"coloring has {len(obj.classes)} classes, expected {k_or_r}")
        if not coloring_holds(g, obj):
            out.append("class independence breaks, or the classes do not partition the vertices")
        else:
            sizes = [c.bits.bit_count() for c in obj.classes]
            if sizes and max(sizes) - min(sizes) > 1:
                out.append("equitability breaks: class sizes spread by more than one")
    elif type(obj) in _WITNESSES:
        want, holds, clause = _WITNESSES[type(obj)]
        if mode != want or not holds(g, obj, k_or_r):
            out.append(clause)
    elif obj is not None:
        out.append(f"unverifiable payload {type(obj).__name__}")
    return out


def verify_certificate(
    g: Graph, cert: DecisionCertificate, mode: str, value: int
) -> List[str]:
    """Re-check a certificate against a graph; returns a list of violations.

    `mode` is "factor" or "coloring"; `value` is r or k.  Positive answers
    must be of kind "factorable" in factor mode and "colorable" in coloring
    mode and carry a matching certificate (a tiling of K_r for the r asked),
    negative structural answers an obstruction witness that verifies, and a
    negative answer of any other kind must be "exact"; unresolved
    certificates only need a None answer.  A `value` below 1 asks nothing,
    and is the one clause.
    """
    if mode not in ("factor", "coloring"):
        raise PreconditionError(f"mode must be factor or coloring, got {mode!r}")
    if value < 1:
        return [f"{'r' if mode == 'factor' else 'k'} must be positive, got {value}"]
    out: List[str] = []
    if cert.kind == "unresolved":
        if cert.answer is not None:
            out.append("unresolved certificate carries an answer")
        return out
    if cert.answer is True:
        yes = "factorable" if mode == "factor" else "colorable"
        if cert.kind != yes:
            out.append(f"positive answer of kind {cert.kind!r}: a YES in {mode} mode is {yes}")
        want = Tiling if mode == "factor" else Coloring
        if not isinstance(cert.certificate, want):
            out.append(f"positive answer without a {want.__name__.lower()}")
        else:
            out.extend(payload_clauses(g, cert.certificate, value, mode))
        return out
    if cert.answer is False:
        if cert.kind == "obstructed":
            if cert.witness is None:
                out.append("obstructed certificate without a witness")
            elif type(cert.witness) not in _WITNESSES:
                out.append(f"a {type(cert.witness).__name__} cannot witness a NO")
            else:
                out.extend(payload_clauses(g, cert.witness, value, mode))
        elif cert.kind != "exact":
            out.append(f"negative answer of kind {cert.kind!r}: a NO is obstructed or exact")
        return out
    out.append("answer must be true, false, or an unresolved None")
    return out
