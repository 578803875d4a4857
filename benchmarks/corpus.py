"""The benchmark's workloads: which decision calls each one makes.

Every workload is a fixed list of cases built from the package's own
generators and extremal builders.  The expected outcome of each case is
stored in ``expected.json`` beside this file, keyed by case id and pinned to
the input's ``content_hash()``, so a generator change that alters an input
shows up as a failure instead of silently swapping the corpus.

The ``--seed`` of a run orders the calls of each pass (see ``passes``).  It
does not pick the instances: per-instance cost is heavy-tailed on the exact
search (a few inputs take seconds, most take microseconds), so a seed-drawn
instance set would move ``wall_s`` between seeds by more than any bound the
benchmark could enforce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from equitiler import extremal, generators, graphs
from equitiler.constants import ConstantsConfig, default_constants

EXPECTED_PATH = Path(__file__).with_name("expected.json")
LIGHT_PATH = Path(__file__).with_name("light.json")

# The test suite's roomier absorption constants; with the defaults no
# absorber family fits at these sizes.
DENSE = replace(default_constants(3), xi=Fraction(1, 4), epsilon=Fraction(1, 10))

# The exact workload's instance draw: n, p and k ranges, and the draw seed.
EXACT_DRAW_SEED = 1103
EXACT_DRAW = 108
EXACT_N = (24, 48)
EXACT_P = (0.2, 0.3)
EXACT_K = (4, 5, 6)
# Inputs on which the unbudgeted colouring search runs for tens of seconds.
EXACT_NAMED = ((40, 0.5, 7, 9), (48, 0.3, 7, 6), (48, 0.3, 7, 7))


@dataclass(frozen=True)
class Case:
    """One decision call: `mode` is factor, coloring or sweep."""

    id: str
    mode: str
    value: int
    build: Optional[Callable[[], graphs.Graph]] = None
    cfg: Optional[ConstantsConfig] = None
    check: str = ""


@dataclass(frozen=True)
class Workload:
    cases: Tuple[Case, ...]
    # Wall limit of one call, enforced by the runner.  On exact it sits in the
    # gap between the slowest finishing input (about 1.4 s unloaded, 2.4 s on
    # a loaded core) and the fastest unfinished one (over 8 s), so no input
    # flips with the machine's load.
    limit_s: float
    # One pass's duration at this benchmark's introduction (2 cores, Python
    # 3.11); fixes the pass count so every commit times the same calls.
    nominal_pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))


def _ex2_plus(n: int, u: int, v: int) -> graphs.Graph:
    g = extremal.build_ex2(n, 3, 1)
    g.add_edge(u, v)
    return g


def _structured(sizes) -> Tuple[Case, ...]:
    out: List[Case] = []
    for n in sizes:
        m = n // 3
        # Vertex 0 is B0, 1..2m-1 is B1 and 2m..3m-1 is the independent part A.
        a_edge = lambda n=n, m=m: _ex2_plus(n, 2 * m, 2 * m + 1)
        out += [
            Case(f"ex2+A/n={n}", "factor", 3, a_edge),
            Case(f"ex2+B0B1/n={n}", "factor", 3, lambda n=n: _ex2_plus(n, 0, 1)),
            Case(f"co(ex2+A)/n={n}", "coloring", m,
                 lambda a_edge=a_edge: graphs.complement(a_edge())),
            Case(f"ex2/n={n}", "factor", 3, lambda n=n: extremal.build_ex2(n, 3, 1)),
            Case(f"ex1/n={n}", "factor", 3, lambda n=n: extremal.build_ex1_like(n, 3)),
        ]
    return tuple(out)


def _gnp(n: int, p: float, seed: int = 0) -> Callable[[], graphs.Graph]:
    return lambda: generators.random_gnp(n, p, seed)


def _ore(n: int, alpha, seed: int = 0) -> Callable[[], graphs.Graph]:
    return lambda: generators.random_ore(n, 3, alpha, seed)


def _dense(sizes_r3, sizes_r2, ore_n) -> Tuple[Case, ...]:
    out = [
        Case(f"gnp(n={n},p=0.9)/r=3", "factor", 3, _gnp(n, 0.9), DENSE)
        for n in sizes_r3
    ]
    out.append(Case(f"ore(n={ore_n},a=0)/r=3", "factor", 3, _ore(ore_n, 0)))
    out += [Case(f"gnp(n={n},p=0.5)/r=2", "factor", 2, _gnp(n, 0.5)) for n in sizes_r2]
    # Above the exact fallback cap these come back unresolved, although the
    # exact oracle factors each in milliseconds.
    out += [
        Case("ore(n=60,a=1/50)/r=3", "factor", 3, _ore(60, Fraction(1, 50))),
        Case("ore(n=90,a=1/50)/r=3", "factor", 3, _ore(90, Fraction(1, 50))),
        Case("gnp(n=64,p=0.85,s=2)/r=4", "factor", 4, _gnp(64, 0.85, 2)),
    ]
    return tuple(out)


def exact_draw(count: int) -> List[Tuple[int, float, int, int]]:
    """(n, p, graph seed, k) of the first `count` draws; never filtered."""
    rng = random.Random(EXACT_DRAW_SEED)
    out = []
    for _ in range(count):
        n = rng.randint(*EXACT_N)
        p = rng.choice(EXACT_P)
        k = rng.choice(EXACT_K)
        out.append((n, p, rng.randrange(1000), k))
    return out


def _exact(count: int, named) -> Tuple[Case, ...]:
    return tuple(
        Case(f"gnp(n={n},p={p},s={s})/k={k}", "coloring", k, _gnp(n, p, s))
        for n, p, s, k in exact_draw(count) + list(named)
    )


def _sweep(plan) -> Tuple[Case, ...]:
    return tuple(Case(f"sweep/{check}/n={n}", "sweep", n, check=check) for check, n in plan)


def workloads(tiny: bool = False) -> Dict[str, Workload]:
    """The four workloads; `tiny` shrinks every size for the smoke test."""
    if tiny:
        structured = _structured((120,))
        dense = _dense((60,), (60,), 45)
        exact = _exact(6, ())
        sweep = _sweep((("equivalence", 4), ("dichotomy", 4), ("no-set", 5)))
    else:
        structured = _structured((240, 480, 960))
        dense = _dense((240, 480, 960), (480, 960), 240)
        exact = _exact(EXACT_DRAW, EXACT_NAMED)
        sweep = _sweep((("equivalence", 5), ("dichotomy", 5), ("no-set", 6)))
    return {
        "structured": Workload(structured, limit_s=60.0, nominal_pass_s=3.8),
        "dense": Workload(dense, limit_s=60.0, nominal_pass_s=1.1),
        "exact": Workload(exact, limit_s=4.0, nominal_pass_s=8.0),
        "sweep": Workload(sweep, limit_s=10.0, nominal_pass_s=0.13),
    }


def load_expected() -> Dict[str, dict]:
    with EXPECTED_PATH.open() as fh:
        return json.load(fh)


def load_light() -> Dict[str, List[str]]:
    """Per workload, the ids of the cases each untraced pass repeats."""
    with LIGHT_PATH.open() as fh:
        return json.load(fh)
