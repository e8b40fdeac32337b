"""Summary statistics and failure accounting shared by every workload."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

TAIL_LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest percentile on the ladder with at least ten samples beyond it.

    Samples beyond the p-th percentile of n are n - ceil(p/100 * n); with
    fewer than 100 samples no tail percentile is reportable.
    """
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n - 1e-9) >= MIN_BEYOND:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_unit_s(repetitions: list[list[tuple[str, str, float]]]) -> dict[tuple[str, str], float]:
    """Per (command, unit kind): the sum over its units of each unit's median time, in s.

    Each repetition lists its steps, questions and queries as (command, kind,
    ms) in run order. Every repetition runs the same units on the same
    inputs, so the k-th entry of each is the same work. Repetitions whose
    units differ from the first one's (a failed command) are left out.
    """
    if not repetitions:
        return {}
    shape = [(c, k) for c, k, _ in repetitions[0]]
    samples = [[ms for _, _, ms in rep] for rep in repetitions
               if [(c, k) for c, k, _ in rep] == shape]
    out: dict[tuple[str, str], float] = {}
    for i, key in enumerate(shape):
        out[key] = out.get(key, 0.0) + median([s[i] for s in samples]) / 1000.0
    return out


@dataclass
class CommandOutcome:
    """Operations one CLI command was asked for and what became of them."""
    command: str
    planned: int                 # steps, questions or queries the command should run
    completed: int               # units that finished before the command ended
    exit_code: int
    failed_checks: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        if self.failed_checks:
            return self.planned            # output is wrong: none of its operations count
        if self.exit_code != 0:
            return max(1, self.planned - self.completed)   # a failed command is never dropped
        return 0


def tally(outcomes: list[CommandOutcome]) -> tuple[int, int]:
    """(attempted, failed) over every command run."""
    attempted = sum(o.planned for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return attempted, failed
