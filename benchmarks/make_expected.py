"""Regenerate ``expected.json``: the stored outcome of every corpus case.

    python3 benchmarks/make_expected.py

A stored YES carries a certificate that ``verify_certificate`` accepts.  A
stored NO comes from a construction (the Ex1 and Ex2 builders, checked with
their witnesses) or from the exact oracle run to completion.  Above n=48 the
decider's verified YES is stored when it gives one; otherwise the exact
oracle settles the input.  Every corpus input gets a True or False answer.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from equitiler import (  # noqa: E402
    DecisionCertificate,
    Ex1Witness,
    VertexSet,
    certificate_to_json,
    decide_equitable,
    decide_kr_factor,
    equitable_coloring_exact,
    kr_factor_exact,
    sweep,
    verify_certificate,
)
from equitiler.extremal import ex2_witness  # noqa: E402

import corpus  # noqa: E402

# Up to this size the exact oracle settles every corpus input within minutes.
ORACLE_MAX_N = 48


def _construction_no(case, g) -> bool:
    n = g.n
    if case.id.startswith("ex2/"):
        return ex2_witness(n, 3, 1).verify(g, 3)
    if case.id.startswith("ex1/"):
        return Ex1Witness(VertexSet(range(n // 3 + 1))).verify(g, 3)
    return False


def _doc(cert) -> dict:
    doc = certificate_to_json(cert)
    doc["timings"] = {}
    return doc


def _positive(case, g, cert) -> dict:
    bad = verify_certificate(g, cert, case.mode, case.value)
    if cert.answer is not True or bad:
        raise SystemExit(f"{case.id}: stored certificate rejected: {bad}")
    return {"answer": True, "source": "certificate", "certificate": _doc(cert)}


def _oracle(case, g) -> dict:
    if case.mode == "factor":
        payload = kr_factor_exact(g, case.value)
    else:
        payload = equitable_coloring_exact(g, case.value)
    if payload is None:
        return {"answer": False, "source": "oracle"}
    kind = "factorable" if case.mode == "factor" else "colorable"
    return _positive(case, g, DecisionCertificate(kind, True, payload, None, "oracle", True))


def settle(case, g) -> dict:
    if _construction_no(case, g):
        return {"answer": False, "source": "construction"}
    if g.n > ORACLE_MAX_N:
        decide = decide_kr_factor if case.mode == "factor" else decide_equitable
        cert = decide(g, case.value, cfg=case.cfg)
        if cert.answer is True:
            return _positive(case, g, cert)
    return _oracle(case, g)


def main() -> None:
    out = {}
    for tiny in (True, False):
        for wl in corpus.workloads(tiny).values():
            for case in wl.cases:
                if case.id in out:
                    continue
                t0 = time.perf_counter()
                if case.mode == "sweep":
                    rep = sweep(case.value, case.check, threads=1)
                    entry = {
                        "instances": rep.instances,
                        "no_instances": rep.no_instances,
                        "witnesses": rep.witnesses,
                        "clean": rep.clean,
                    }
                else:
                    g = case.build()
                    entry = {"hash": g.content_hash(), **settle(case, g)}
                out[case.id] = entry
                print(f"{case.id}: {entry.get('answer', entry.get('instances'))}"
                      f" ({entry.get('source', 'sweep')}, {time.perf_counter() - t0:.1f}s)",
                      flush=True)
    rows = (
        f"{json.dumps(key)}: {json.dumps(out[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(out)
    )
    corpus.EXPECTED_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
