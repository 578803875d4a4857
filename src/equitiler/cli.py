"""Command-line front end: decide, factor, verify, gen, sweep, bench.

Exit codes follow one contract across commands: 0 for a positive answer
(colorable, factorable, verified, clean sweep), 1 for a negative one, 2 for
unresolved, 3 for usage and parse errors, 4 for internal failures.  `verify`
also exits 2, with `"ok": null` and an `"unchecked"` reason, on a NO that
carries no witness (kind "exact"): nothing in it can be re-checked.  All JSON
output is sorted and timing-free except `bench` and the sweep wall clock, so
identical inputs produce identical bytes: no decision takes a seed, and
`gen`'s `--seed` is part of its input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .certificates import (
    certificate_from_json,
    certificate_to_json,
    payload_clauses,
    verify_certificate,
    vertex_sets_from_json,
)
from .decide import decide_equitable, decide_kr_factor
from .errors import PreconditionError
from .generators import FAMILIES, generate
from .graphio import GraphParseError, dumps, loads
from .graphs import Graph
from .oracle import Coloring, Tiling
from .sweep import CHECKS, sweep

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNRESOLVED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

FORMATS = ("edgelist", "dimacs")

class CliError(Exception):
    """Usage-level failure; reported on stderr with exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_graph(path: str, fmt: str) -> Graph:
    return loads(_read_text(path), fmt)


def _emit_json(doc: dict, out: Optional[str]) -> None:
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot read {text!r} as a fraction") from None


def _envelope(cert, *, command: str, mode: str, value: int, g: Graph) -> dict:
    doc = certificate_to_json(cert)
    # Stage timings vary run to run; dropping them keeps output byte-stable.
    doc.pop("timings", None)
    doc["command"] = command
    doc["mode"] = mode
    doc["value"] = value
    doc["n"] = g.n
    doc["graph_hash"] = g.content_hash()
    return doc


def _exit_for(answer: Optional[bool]) -> int:
    if answer is True:
        return EXIT_POSITIVE
    if answer is False:
        return EXIT_NEGATIVE
    return EXIT_UNRESOLVED


def cmd_decide(args) -> int:
    g = _load_graph(args.input, args.format)
    k = args.k
    if k < 1:
        raise CliError(f"--k must be positive, got {k}")
    cert = decide_equitable(g, k)
    _emit_json(_envelope(cert, command="decide", mode="coloring", value=k, g=g), args.out)
    return _exit_for(cert.answer)


def cmd_factor(args) -> int:
    g = _load_graph(args.input, args.format)
    r = args.r
    if r < 1:
        raise CliError(f"--r must be positive, got {r}")
    cert = decide_kr_factor(g, r)
    _emit_json(_envelope(cert, command="factor", mode="factor", value=r, g=g), args.out)
    return _exit_for(cert.answer)


def _verify_raw(g: Graph, doc: list, args) -> List[str]:
    if (args.k is None) == (args.r is None):
        raise CliError("bare payloads need exactly one of --k or --r")
    flag, value = ("--r", args.r) if args.r is not None else ("--k", args.k)
    if value < 1:
        raise CliError(f"{flag} must be positive, got {value}")
    sets = vertex_sets_from_json(doc)
    if args.r is not None:
        return payload_clauses(g, Tiling(args.r, sets), args.r, "factor")
    return payload_clauses(g, Coloring(sets), args.k, "coloring")


def _verify_envelope(g: Graph, doc: dict) -> Tuple[List[str], Optional[str]]:
    """Violated clauses, and why the answer went unchecked if it did."""
    mode = doc.get("mode")
    value = doc.get("value")
    if mode not in ("coloring", "factor") or value is None:
        raise CliError("certificate lacks its mode/value envelope fields")
    # JSON's true is a Python int; as a value it is not 1.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise CliError(f"certificate value must be a positive integer, got {value!r}")
    stored = doc.get("graph_hash")
    if isinstance(stored, str) and stored != g.content_hash():
        return ["graph hash mismatch: certificate was issued for a different graph"], None
    cert = certificate_from_json(doc)
    unchecked = None
    if cert.answer is False and cert.kind != "obstructed":
        unchecked = f"negative answer of kind {cert.kind} carries no witness to check"
    return verify_certificate(g, cert, mode, value), unchecked


def cmd_verify(args) -> int:
    g = _load_graph(args.input, args.format)
    try:
        doc = json.loads(_read_text(args.certificate))
    except json.JSONDecodeError as exc:
        raise CliError(f"certificate is not JSON: {exc}") from None
    unchecked = None
    if isinstance(doc, list):
        clauses = _verify_raw(g, doc, args)
    elif isinstance(doc, dict):
        clauses, unchecked = _verify_envelope(g, doc)
    else:
        raise CliError("certificate must be a JSON object or a list of vertex lists")
    report = {
        "schema": "equitiler.verify/1",
        "ok": not clauses,
        "clauses": clauses,
    }
    if clauses:
        report["first_violated"] = clauses[0]
        code = EXIT_NEGATIVE
    elif unchecked is not None:
        report["ok"] = None
        report["unchecked"] = unchecked
        code = EXIT_UNRESOLVED
    else:
        code = EXIT_POSITIVE
    _emit_json(report, args.out)
    return code


def cmd_gen(args) -> int:
    alpha = _fraction(args.alpha) if args.alpha is not None else None
    p = _fraction(args.p) if args.p is not None else None
    g = generate(
        args.family,
        n=args.n,
        r=args.r,
        s=args.s,
        k=args.k,
        m=args.m,
        p=p,
        alpha=alpha,
        seed=args.seed,
    )
    _write_out(dumps(g, args.format), args.out)
    return EXIT_POSITIVE


def cmd_sweep(args) -> int:
    report = sweep(args.n_max, args.check, args.threads)
    _emit_json(report.to_json(), args.out)
    return EXIT_POSITIVE if report.clean else EXIT_NEGATIVE


def cmd_bench(args) -> int:
    g = _load_graph(args.input, args.format)
    if (args.k is None) == (args.r is None):
        raise CliError("bench needs exactly one of --k or --r")
    if args.repeat < 1:
        raise CliError("--repeat must be >= 1")
    walls: List[float] = []
    cert = None
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        if args.k is not None:
            cert = decide_equitable(g, args.k)
        else:
            cert = decide_kr_factor(g, args.r)
        walls.append(time.perf_counter() - t0)
    doc = {
        "schema": "equitiler.bench/1",
        "mode": "coloring" if args.k is not None else "factor",
        "value": args.k if args.k is not None else args.r,
        "n": g.n,
        "graph_hash": g.content_hash(),
        "answer": cert.answer,
        "kind": cert.kind,
        "provenance": cert.provenance,
        "repeat": args.repeat,
        "wall_seconds": [round(w, 6) for w in walls],
        "stages": {stage: round(secs, 6) for stage, secs in cert.timings},
    }
    _emit_json(doc, args.out)
    return EXIT_POSITIVE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="equitiler",
        description="Equitable colorings and clique factors: decide, verify, generate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_args(sp):
        sp.add_argument("input", help="graph file, or - for stdin")
        sp.add_argument("--format", choices=FORMATS, default="edgelist")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    d = sub.add_parser("decide", help="decide equitable k-colorability")
    graph_args(d)
    d.add_argument("--k", type=int, required=True)
    d.set_defaults(fn=cmd_decide)

    f = sub.add_parser("factor", help="decide clique-factor existence")
    graph_args(f)
    f.add_argument("--r", type=int, required=True)
    f.set_defaults(fn=cmd_factor)

    v = sub.add_parser("verify", help="re-verify a certificate against a graph")
    graph_args(v)
    v.add_argument("certificate", help="certificate JSON, or - for stdin")
    v.add_argument("--k", type=int, default=None, help="class count for a bare coloring payload")
    v.add_argument("--r", type=int, default=None, help="clique size for a bare tiling payload")
    v.set_defaults(fn=cmd_verify)

    ge = sub.add_parser("gen", help="emit one instance of a named family")
    ge.add_argument("--family", required=True, choices=FAMILIES)
    ge.add_argument("--n", type=int, default=None)
    ge.add_argument("--r", type=int, default=None)
    ge.add_argument("--s", type=int, default=None)
    ge.add_argument("--k", type=int, default=None)
    ge.add_argument("--m", type=int, default=None)
    ge.add_argument("--p", default=None)
    ge.add_argument("--alpha", default=None)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--format", choices=FORMATS, default="edgelist")
    ge.add_argument("--out", default=None)
    ge.set_defaults(fn=cmd_gen)

    sw = sub.add_parser("sweep", help="exhaustive small-order checks")
    sw.add_argument("--n-max", type=int, required=True)
    sw.add_argument("--check", choices=CHECKS, default="equivalence")
    sw.add_argument("--threads", type=int, default=None)
    sw.add_argument("--out", default=None)
    sw.set_defaults(fn=cmd_sweep)

    b = sub.add_parser("bench", help="time the decision ladder on one instance")
    graph_args(b)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--r", type=int, default=None)
    b.add_argument("--repeat", type=int, default=1)
    b.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # The sweeps' canonical form runs small float64 matmuls, several times
    # slower on BLAS's default pool of one thread per core than on one
    # thread.  numpy is imported lazily, after this; a user's own setting wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - contract backstop
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
