"""Benchmark runner: one workload, one seed, untraced or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop in one process and one thread: each decision call starts when
the previous one has returned.  The run builds the workload's corpus (timed
as ``setup_s``), checks every input against its stored hash, then makes a
fixed number of passes over the corpus in an order drawn from ``--seed``.
Every answer is checked against the stored expectation and re-verified with
``verify_certificate``.  A case whose call runs past the workload's wall
limit fails, and later passes skip it.  Timings are scaled to the reference
machine's speed by ``speed.SpeedProbe``.  With ``--trace 1`` the run also
makes traced passes and reports the per-layer metrics instead of the
end-to-end ones.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is a report with the sample counts, the route histogram,
the raw timings and the failures.  Exit status is 0 when a result is
printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from speed import NOMINAL_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5
BUILD_REPEATS = 3
TAIL_BEYOND = 10
# The cases listed in light.json, those under LIGHT_S at the reference speed,
# are called LIGHT_REPEATS times in each untraced pass, at random places in its
# order, so that their sub-millisecond latencies rest on more than one call
# per pass.  The list is stored, not measured in the run, so that every run
# makes the same calls (see make_light.py).
LIGHT_S = 0.01
LIGHT_REPEATS = 20


class WallLimit(BaseException):
    """Raised by the interval timer when a call outlives its wall limit."""


def _on_alarm(signum, frame):
    raise WallLimit()


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Import equitiler from the checkout's src/, or exit with status 2."""
    if not (SRC / "equitiler" / "__init__.py").is_file():
        _fail(f"no src/equitiler under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import equitiler  # noqa: F401


# Run in a fresh interpreter: a second import in this process would only hit
# the module cache.  The kernel runs twice before the import and twice after,
# on the core that ran the import, to scale it.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
from refkernel import kernel

def timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t

before = [timed(kernel) for _ in range(2)]
took = timed(lambda: __import__("equitiler"))
print(took, *before, *[timed(kernel) for _ in range(2)])
"""


def time_import() -> Tuple[float, float]:
    """Seconds to import equitiler in a fresh interpreter: raw and scaled."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"importing equitiler failed: {proc.stderr.strip()}")
    took, *kernel = map(float, proc.stdout.split())
    return took, took * NOMINAL_S / statistics.median(kernel)


def spread(count: int, passes: int) -> Counter:
    """How many of `count` set-up samples to take before each pass."""
    return Counter(k * passes // count for k in range(count))


def bench_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def tail(values: List[float]) -> Dict[str, float]:
    """The value at the highest percentile with at least ten values beyond it.

    Below twenty values that percentile would fall under the median, so the
    maximum is reported instead, at percentile 100.
    """
    s = sorted(values)
    if len(s) < 2 * TAIL_BEYOND:
        return {"value": s[-1], "percentile": 100.0, "cases": len(s)}
    return {
        "value": s[-1 - TAIL_BEYOND],
        "percentile": 100.0 * (len(s) - TAIL_BEYOND) / len(s),
        "cases": len(s),
    }


class Runner:
    """Runs one workload's passes and keeps every outcome."""

    def __init__(self, workload, expected: Dict[str, dict], probe):
        import equitiler

        self.eq = equitiler
        self.wl = workload
        self.expected = expected
        self.probe = probe
        self.graphs: Dict[str, object] = {}
        self.bad_hash: List[str] = []
        # Cases that ran past the wall limit; later passes skip them.
        self.over_limit: Set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.spans: Dict[str, List[Tuple[float, float]]] = {}
        self.failed_cases: Set[str] = set()
        self.undecided_cases: Set[str] = set()
        self.failures: Counter = Counter()
        self.routes: Counter = Counter()
        self.sweep_counts: Counter = Counter()
        self.attempted = self.failed = self.passes = 0
        self.incorrect = False

    def build(self) -> Tuple[float, float]:
        """Build the corpus; the first build's graphs are the ones called."""
        t0 = time.perf_counter()
        graphs = {c.id: c.build() for c in self.wl.cases if c.build is not None}
        t1 = time.perf_counter()
        self.graphs = self.graphs or graphs
        return t0, t1

    def check_hashes(self) -> None:
        for cid, g in self.graphs.items():
            want = self.expected.get(cid, {}).get("hash")
            if g.content_hash() != want:
                self.bad_hash.append(cid)

    def run_pass(self, order: List[int], tracer=None) -> None:
        for op, i in enumerate(order):
            case = self.wl.cases[i]
            if case.id in self.over_limit:
                continue
            if tracer is not None:
                tracer.op = op
            self.probe.tick()
            self._call(case)
        self.passes += 1

    def _call(self, case) -> None:
        eq = self.eq
        g = self.graphs.get(case.id)
        before = list(g.adj) if g is not None else None
        result = error = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.wl.limit_s)
        try:
            try:
                if case.mode == "factor":
                    result = eq.decide_kr_factor(g, case.value, cfg=case.cfg)
                elif case.mode == "coloring":
                    result = eq.decide_equitable(g, case.value, cfg=case.cfg)
                else:
                    # A CLI sweep enumerates afresh in every process.
                    getattr(eq.smallgraphs.connected_graphs, "cache_clear", lambda: None)()
                    result = eq.sweep(case.value, case.check, threads=1)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except WallLimit:
            error = "wall limit"
            self.over_limit.add(case.id)
        except Exception as e:  # a raising call is a failed operation
            error = f"raised {type(e).__name__}"
        t1 = time.perf_counter()
        self.attempted += 1
        if error is None:
            self.spans.setdefault(case.id, []).append((t0, t1))
            error = self._check(case, g, before, result)
        if error is not None:
            self.failed += 1
            self.failed_cases.add(case.id)
            self.undecided_cases.add(case.id)
            self.failures[f"{case.id}: {error}"] += 1
            if error != "wall limit":
                self.incorrect = True

    def _check(self, case, g, before, result) -> Optional[str]:
        """None when the outcome is right; otherwise why it is wrong."""
        exp = self.expected.get(case.id)
        if exp is None:
            return "no stored expectation"
        if case.mode == "sweep":
            got = {"instances": result.instances, "no_instances": result.no_instances,
                   "witnesses": result.witnesses, "clean": result.clean}
            for key, value in got.items():
                if key != "clean":
                    self.sweep_counts[key] += value
            if got != exp:
                return f"sweep report {got} differs from stored {exp}"
            return None
        if exp.get("answer") not in (True, False):
            return "no stored answer"
        if case.id in self.bad_hash:
            return "input hash differs from the stored corpus"
        if list(g.adj) != before:
            return "decision call mutated its input"
        self.routes[f"{result.kind}/{result.provenance}"] += 1
        if result.answer is None:
            # Unresolved: not wrong, but it counts against decided_frac.
            self.undecided_cases.add(case.id)
            return None
        if result.answer != exp["answer"]:
            return f"answered {result.answer}, stored answer is {exp['answer']}"
        bad = self.eq.verify_certificate(g, result, case.mode, case.value)
        if bad:
            return "certificate rejected: " + "; ".join(bad)
        return None

    def latency_ms(self, raw: bool = False) -> Dict[str, float]:
        """Each case's median latency over the run, at the reference speed.

        Cases that ran past the wall limit have no latency: they show in
        ``ok_frac`` and in the report's ``limit_hits``.
        """
        scale = (lambda t0: 1.0) if raw else self.probe.scale
        return {
            cid: 1000.0 * statistics.median((t1 - t0) * scale(t0) for t0, t1 in spans)
            for cid, spans in self.spans.items() if cid not in self.over_limit
        }

    def wall_s(self) -> float:
        """One pass's time, every case that finished at its median latency."""
        return sum(self.latency_ms().values()) / 1000.0

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        ms = list(self.latency_ms().values())
        cases = len(self.wl.cases)
        return {
            "wall_s": sum(ms) / 1000.0,
            "decide_p50_ms": statistics.median(ms),
            "decide_tail_ms": tail(ms)["value"],
            "decided_frac": 1.0 - len(self.undecided_cases) / cases,
            "ok_frac": 1.0 - len(self.failed_cases) / cases,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def report(self) -> dict:
        ms = list(self.latency_ms().values())
        raw = list(self.latency_ms(raw=True).values())
        calls = sum(len(v) for cid, v in self.spans.items() if cid not in self.over_limit)
        return {
            "passes": self.passes,
            "decide_p50_ms": {"cases": len(ms), "calls": calls,
                              "raw": statistics.median(raw)},
            "decide_tail_ms": {**tail(ms), "raw": tail(raw)["value"]},
            "wall_s_raw": sum(raw) / 1000.0,
            "fail_frac": self.failed / self.attempted,
            "limit_hits": sorted(self.over_limit),
            "routes": dict(sorted(self.routes.items())),
            "failures": dict(sorted(self.failures.items())),
            "case_ms": dict(sorted(self.latency_ms().items())),
        }


def per_layer(runner: Runner, tracer, setup_snap: Dict[str, float],
              untraced_wall: float) -> Dict[str, float]:
    """Per-layer figures, per traced pass; the generators' per traced set-up.

    Times are scaled by the traced passes' mean probe, like the end-to-end
    figures, so that runs under different loads compare.
    """
    passes = runner.passes
    scale = NOMINAL_S / statistics.fmean(runner.probe.took)
    snap = tracer.snapshot()
    out: Dict[str, float] = {}
    for key, value in snap.items():
        if key.startswith("generators."):
            out[key] = setup_snap[key]
        else:
            out[key] = (value - setup_snap.get(key, 0)) / passes
        if key.endswith("_s"):
            out[key] *= scale
    factors = out["absorbing.absorb.calls"] - out["absorbing.absorb.raised"]
    out["absorbing.attempts_per_factor"] = (
        out["absorbing.build_absorbing_set.calls"] / factors if factors else 0.0
    )
    out["oracle.limit_hits"] = len(runner.over_limit)
    kinds = Counter()
    provenances = Counter()
    for route, count in runner.routes.items():
        kind, prov = route.split("/")
        kinds[kind] += count
        provenances[prov] += count
    for kind in ("factorable", "colorable", "obstructed", "exact", "unresolved"):
        out[f"decide.kind.{kind}"] = kinds[kind] / passes
    for prov in ("recognizer", "pipeline", "oracle"):
        out[f"decide.provenance.{prov}"] = provenances[prov] / passes
    for key in ("instances", "no_instances", "witnesses"):
        out[f"sweep.{key}"] = runner.sweep_counts[key] / passes
    out["trace.overhead_frac"] = runner.wall_s() / untraced_wall - 1.0
    return out


def main(argv: Optional[List[str]] = None) -> None:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = ap.parse_args(argv)

    # One thread: keep numpy's BLAS from spreading the sweeps over cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_package()
    import corpus

    spec = bench_spec()
    workloads = corpus.workloads(tiny=args.tiny)
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    probe = SpeedProbe()
    runner = Runner(workloads[args.workload], corpus.load_expected(), probe)
    signal.signal(signal.SIGALRM, _on_alarm)

    builds = [runner.build()]
    runner.check_hashes()
    rng = random.Random(args.seed)
    passes = runner.wl.passes(args.seconds)
    if args.trace:
        passes = max(1, passes // 2)
    n_cases = len(runner.wl.cases)
    # Set-up is sampled between passes, so that its samples see the same
    # stretches of machine speed as the calls do.
    import_at = spread(IMPORT_REPEATS, passes)
    build_at = spread(BUILD_REPEATS - 1, passes)
    imports: List[Tuple[float, float]] = []
    light = set(corpus.load_light().get(args.workload, ()))
    order = [i for i, c in enumerate(runner.wl.cases)
             for _ in range(LIGHT_REPEATS if c.id in light else 1)]
    for i in range(passes):
        for _ in range(import_at[i]):
            probe.tick()
            imports.append(time_import())
        for _ in range(build_at[i]):
            probe.tick()
            builds.append(runner.build())
        runner.run_pass(rng.sample(order, len(order)))
    probe.sample()
    setup_s = (statistics.median(scaled for _, scaled in imports)
               + statistics.median((t1 - t0) * probe.scale(t0) for t0, t1 in builds))
    metrics = runner.end_to_end(setup_s)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": {"import_s": [took for took, _ in imports], "build_s": [t1 - t0 for t0, t1 in builds]},
        "speed": {"probes": len(probe.took), "kernel_s_mean": statistics.fmean(probe.took),
                  "kernel_s_min": min(probe.took), "kernel_s_max": max(probe.took)},
        **runner.report(),
    }
    correct, attempted, failed = not runner.incorrect, runner.attempted, runner.failed

    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        runner.probe = SpeedProbe()
        tracer.install()
        try:
            runner.build()
            setup_snap = tracer.snapshot()
            runner.reset()
            for _ in range(passes):
                runner.run_pass(rng.sample(range(n_cases), n_cases), tracer)
        finally:
            tracer.uninstall()
        runner.probe.sample()
        metrics = per_layer(runner, tracer, setup_snap, metrics["wall_s"])
        report["traced"] = runner.report()
        correct = correct and not runner.incorrect
        attempted += runner.attempted
        failed += runner.failed
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed})

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not produced: {', '.join(missing)}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct and not runner.bad_hash,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
