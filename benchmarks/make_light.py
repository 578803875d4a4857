"""Regenerate ``light.json``: the cases each untraced pass calls repeatedly.

    python3 benchmarks/make_light.py

A case is light when its median latency over ``CALLS`` calls, at the
reference speed of ``speed.py``, is under ``run.LIGHT_S``.  Whole sweeps are
never light: the sweep workload makes enough passes without repeats.  The
list is stored rather than measured in each run, so that every run of the
benchmark makes the same calls: a case near the threshold would otherwise be
repeated in some runs and not in others, and the runs' operation counts
would differ.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from run import LIGHT_S, Runner, _on_alarm  # noqa: E402
from speed import SpeedProbe  # noqa: E402

CALLS = 5
# Cases whose first call takes this long are heavy without further calls.
FIRST_CALL_CUTOFF_S = 10 * LIGHT_S


def light_ids(wl, expected) -> set:
    runner = Runner(wl, expected, SpeedProbe())
    runner.build()
    cases = [i for i, c in enumerate(wl.cases) if c.mode != "sweep"]
    runner.run_pass(cases)
    first = runner.latency_ms()
    again = [i for i in cases if first.get(wl.cases[i].id, 1e9) < 1000 * FIRST_CALL_CUTOFF_S]
    for _ in range(CALLS - 1):
        runner.run_pass(again)
    runner.probe.sample()
    return {cid for cid, ms in runner.latency_ms().items() if ms < 1000 * LIGHT_S}


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    expected = corpus.load_expected()
    out = {}
    for tiny in (True, False):
        for name, wl in corpus.workloads(tiny).items():
            out.setdefault(name, set()).update(light_ids(wl, expected))
            print(f"{name}{' (tiny)' if tiny else ''}: {len(out[name])} light", flush=True)
    rows = (f"{json.dumps(name)}: {json.dumps(sorted(out[name]))}" for name in sorted(out))
    corpus.LIGHT_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
