"""The benchmark's workloads: fixed slot lists whose inputs come from a seed.

Each workload is a list of slots.  A slot names one CLI invocation and the
range its free parameter is drawn from; the seed draws every such value and
shuffles the op order of each pass, so one seed always yields the same ops.
Refusal slots are invocations the CLI must reject with exit 1.

``PASS_SECONDS`` is the seed code's rough time for one pass over a workload
on a 2-core x86_64 (Python 3.11, numpy 2.4; that machine's speed drifts by up
to 1.8x).  A run does ``max(1, seconds // PASS_SECONDS)`` passes, so every
commit measured with the same ``--seconds`` does the same work, and a faster
commit finishes sooner instead of doing more of it (more ops would move the
tail percentile to another slot).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``params`` holds what the output checks need."""

    slot: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    refusal: bool = False
    output: Optional[str] = None  # "csv" or "svg": written via --output

    @property
    def command(self) -> str:
        return self.argv[0]


def _rate_search(rng: random.Random) -> list[Op]:
    ops = []
    for decade in range(2, 8):
        n = rng.randrange(10 ** decade, 2 * 10 ** decade)
        ops.append(Op(f"critical-gamma-k3-1e{decade}",
                      ("critical-gamma", "--n", str(n), "--k", "3"),
                      {"n": n, "k": 3}))
    for k in (5, 10, 20):
        ops.append(Op(f"critical-gamma-2000-{k}",
                      ("critical-gamma", "--n", "2000", "--k", str(k)),
                      {"n": 2000, "k": k}))
    for n, k in ((100, 3), (2000, 20)):
        ops.append(Op(f"sweep-gamma-{n}-{k}",
                      ("sweep-gamma", "--n", str(n), "--k", str(k),
                       "--points", "200"),
                      {"n": n, "k": k, "points": 200}))
    for decade in (2, 5):
        for command in ("spectrum", "analyze-pt"):
            n = rng.randrange(10 ** decade, 2 * 10 ** decade)
            argv = (command, "--n", str(n))
            if command == "spectrum":
                argv += ("--k", "3")
            ops.append(Op(f"{command}-1e{decade}", argv, {"n": n, "k": 3}))
    ops.append(Op("refuse-binomial-overflow",
                  ("spectrum", "--n", "3000", "--k", "500", "--gamma", "0.001"),
                  {"n": 3000, "k": 500}, refusal=True))
    n = rng.randrange(100, 200)
    ops.append(Op("refuse-gamma-nan",
                  ("simulate", "--n", str(n), "--k", "3", "--gamma", "nan"),
                  {"n": n, "k": 3}, refusal=True))
    return ops


def _oracle_verify(rng: random.Random) -> list[Op]:
    ops = []
    for n, k in ((7, 3), (8, 3), (9, 3), (10, 3), (16, 2), (9, 4)):
        steps = rng.randrange(200, 400)
        ops.append(Op(f"verify-{n}-{k}",
                      ("verify", "--n", str(n), "--k", str(k),
                       "--steps", str(steps)),
                      {"n": n, "k": k, "steps": steps}))
    ops.append(Op("refuse-vertex-cap", ("verify", "--n", "30", "--k", "3"),
                  {"n": 30, "k": 3}, refusal=True))
    return ops


def _curve_output(rng: random.Random) -> list[Op]:
    ops = []
    for decade in (3, 6):
        n = rng.randrange(10 ** decade, 2 * 10 ** decade)
        ops.append(Op(f"simulate-csv-1e{decade}-3",
                      ("simulate", "--n", str(n), "--k", "3",
                       "--steps", "200000"),
                      {"n": n, "k": 3, "steps": 200000}, output="csv"))
    gamma = rng.uniform(0.9, 1.1) / (20 * 2000)
    ops.append(Op("simulate-csv-2000-20",
                  ("simulate", "--n", "2000", "--k", "20",
                   "--gamma", repr(gamma), "--steps", "100000"),
                  {"n": 2000, "k": 20, "steps": 100000}, output="csv"))
    n = rng.randrange(100, 200)
    ops.append(Op("simulate-svg-1e2-3",
                  ("simulate", "--n", str(n), "--k", "3", "--steps", "50000",
                   "--format", "svg"),
                  {"n": n, "k": 3, "steps": 50000}, output="svg"))
    n = rng.randrange(100, 200)
    ops.append(Op("refuse-t-max-inf",
                  ("simulate", "--n", str(n), "--k", "3", "--t-max", "inf"),
                  {"n": n, "k": 3}, refusal=True))
    return ops


def _rate_oracle(rng: random.Random) -> list[Op]:
    # One workload for everything that diagonalises: the tiny reduced-model
    # solves and the dense oracle.  Two workloads instead of three leave room
    # for longer runs within the benchmark's time budget.
    return _rate_search(rng) + _oracle_verify(rng)


WORKLOADS = {
    "rate-oracle": _rate_oracle,
    "curve-output": _curve_output,
}

PASS_SECONDS = {
    "rate-oracle": 18.0,
    "curve-output": 5.0,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops, with every free parameter drawn from ``seed``."""
    return WORKLOADS[workload](random.Random(seed))


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))
