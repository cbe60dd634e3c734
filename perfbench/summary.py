"""Latency percentiles, run-to-run spread and the regression verdict."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least ten samples beyond it,
#: so the 90th percentile needs 100 ops.
MIN_OPS_FOR_P90 = 100


def p90(values) -> float:
    """Nearest-rank 90th percentile; refuses runs too short to have one."""
    count = len(values)
    if count < MIN_OPS_FOR_P90:
        raise ValueError(f"p90 needs at least {MIN_OPS_FOR_P90} samples, got {count}")
    return sorted(values)[math.ceil(0.9 * count) - 1]


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


WITHIN, REGRESSED, UNRESOLVED = "within", "regressed", "unresolved"


def worsening(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    delta = (change - base) if better == "lower" else (base - change)
    return delta / base


def verdict(base_runs, change_runs, bound: float, better: str) -> str:
    """Judge one metric of one workload from two sets of runs.

    Where either side's spread exceeds the bound the comparison cannot tell a
    regression from noise, so the metric is unresolved -- unless every run
    of the change reads better than every run of the base.
    """
    if len(base_runs) < 2 or len(change_runs) < 2:
        return UNRESOLVED
    if spread(base_runs) > bound or spread(change_runs) > bound:
        if better == "lower":
            cleanly_better = max(change_runs) < min(base_runs)
        else:
            cleanly_better = min(change_runs) > max(base_runs)
        return WITHIN if cleanly_better else UNRESOLVED
    if worsening(statistics.median(base_runs), statistics.median(change_runs),
                 better) > bound:
        return REGRESSED
    return WITHIN
