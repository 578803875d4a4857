"""The benchmark's own tests:  python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from equitiler import certificate_from_json, verify_certificate  # noqa: E402
from equitiler.graphs import Graph  # noqa: E402
from layertrace import Tracer  # noqa: E402
from run import LIGHT_REPEATS, Runner, _on_alarm, tail  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _hashes(tiny: bool):
    return {
        c.id: c.build().content_hash()
        for wl in corpus.workloads(tiny).values()
        for c in wl.cases
        if c.build is not None
    }


def test_metric_names_and_limits():
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.workloads())
    for tiny in (False, True):
        for wl in corpus.workloads(tiny).values():
            ids = [c.id for c in wl.cases]
            assert len(ids) == len(set(ids))


@pytest.mark.parametrize("tiny", [True, False])
def test_same_corpus_every_build(tiny):
    first = _hashes(tiny)
    assert first == _hashes(tiny)
    stored = corpus.load_expected()
    assert {cid: stored[cid]["hash"] for cid in first} == first


def test_stored_yes_answers_carry_accepted_certificates():
    cases = {c.id: c for tiny in (True, False)
             for wl in corpus.workloads(tiny).values() for c in wl.cases}
    stored = corpus.load_expected()
    assert set(stored) == set(cases)
    for cid, entry in stored.items():
        case = cases[cid]
        if case.mode == "sweep":
            assert entry["clean"], cid
            continue
        assert entry["source"] in ("certificate", "construction", "oracle"), cid
        assert entry["answer"] in (True, False), cid
        if entry["answer"] is True:
            cert = certificate_from_json(entry["certificate"])
            assert verify_certificate(case.build(), cert, case.mode, case.value) == [], cid


def test_light_cases_are_known_calls():
    light = corpus.load_light()
    assert set(light) == set(corpus.workloads())
    for name, ids in light.items():
        known = {c.id for tiny in (True, False)
                 for c in corpus.workloads(tiny)[name].cases if c.mode != "sweep"}
        assert set(ids) <= known, name


def test_a_case_without_a_stored_answer_fails():
    wl = corpus.workloads(tiny=True)["dense"]
    case = wl.cases[0]
    runner = Runner(wl, {case.id: {"hash": corpus.load_expected()[case.id]["hash"]}}, SpeedProbe())
    runner.build()
    signal.signal(signal.SIGALRM, _on_alarm)
    runner._call(case)
    assert runner.failures == {f"{case.id}: no stored answer": 1}
    assert runner.incorrect


def test_tail_has_ten_values_beyond_it():
    assert tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "cases": 3}
    out = tail([float(i) for i in range(40)])
    assert out["value"] == 29.0 and out["percentile"] == 75.0 and out["cases"] == 40


def test_speed_scale_uses_the_probes_around_a_timing():
    probe = SpeedProbe()
    probe.end = [1.0, 2.0, 3.0]
    probe.took = [NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S]
    assert probe.scale(1.5) == pytest.approx(0.5)
    assert probe.scale(2.5) == pytest.approx(0.4)


def test_tracer_restores_what_it_patches():
    from equitiler import decide, graphs, matching

    before = (Graph.__dict__["induced"], decide.peel_partition, matching.maximum_matching)
    tracer = Tracer()
    tracer.install()
    try:
        assert decide.peel_partition is not before[1]
        g = graphs.Graph.complete(8)
        sub, _ = g.induced(0b1111)
        matching.maximum_matching(sub)
    finally:
        tracer.uninstall()
    assert (Graph.__dict__["induced"], decide.peel_partition, matching.maximum_matching) == before
    snap = tracer.snapshot()
    assert snap["graphs.induced.calls"] == 1 and snap["matching.maximum_matching.calls"] == 1
    assert 0 <= snap["graphs.induced.self_s"] <= snap["graphs.induced.busy_s"]


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_reports_every_metric(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))


def test_every_seed_makes_the_same_calls():
    wl = corpus.workloads(tiny=True)["dense"]
    light = set(corpus.load_light()["dense"])
    calls = wl.passes(1) * sum(LIGHT_REPEATS if c.id in light else 1 for c in wl.cases)
    runs = [_run("dense", 0, seed) for seed in (3, 4)]
    assert [r["attempted"] for r in runs] == [calls] * 2
    assert [r["failed"] for r in runs] == [0, 0]
