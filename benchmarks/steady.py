"""Steadiness check: run one commit's benchmark repeatedly and report spreads.

    python3 benchmarks/steady.py --workload exact [--workload dense ...]
                                 [--runs 10] [--first-seed 1] [--seconds S]

Each run is a separate ``run.py`` process with its own seed, one at a time.
For every end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is ``steady``; the
exit status is 1 when any spread exceeds its bound.  The report also gives
each run's duration, which sets the benchmark's total run budget, and the
spread ``wall_s`` would have without the speed scale of ``speed.py``.  The
runs' operation counts (``attempted`` and ``failed``) must all be equal; the
exit status is 1 too when they are not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    report, result = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), "run_s": time.perf_counter() - t0,
            "wall_s_raw": json.loads(report)["wall_s_raw"]}


def summarize(values, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "unsteady"
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "verdict": verdict}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Report run-to-run spread per metric.")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 to give quartiles")

    unsteady = False
    summary = {}
    for workload in args.workload:
        results = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            rows[m["name"]] = {**summarize(values, m["bound"]), "values": values}
            if rows[m["name"]]["verdict"] == "unsteady":
                unsteady = True
        raw = summarize([r["wall_s_raw"] for r in results], 1.0)
        # Every run of one commit makes the same calls, so the operation
        # counts must not differ between seeds.
        counts = {(r["attempted"], r["failed"]) for r in results}
        if len(counts) > 1:
            unsteady = True
        summary[workload] = {
            "wall_s_raw": raw,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "run_s": [r["run_s"] for r in results],
            "metrics": rows,
        }
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1},"
              f" correct={summary[workload]['correct']}, longest run {max(summary[workload]['run_s']):.1f} s,"
              f" attempted/failed {' '.join(f'{a}/{f}' for a, f in sorted(counts))}")
        for name, row in rows.items():
            print(f"  {name:15s} median {row['median']:12.5g}  q1 {row['q1']:12.5g}"
                  f"  q3 {row['q3']:12.5g}  spread {row['spread']:.4f}"
                  f"  bound {row['bound']:.3f}  {row['verdict']}")
        print(f"  wall_s before the speed scale: median {raw['median']:.5g}, spread {raw['spread']:.4f}")
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
