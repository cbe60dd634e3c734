"""Protocol efficiencies: closed forms, concurrence, and Monte-Carlo averages.

The efficiency of a protocol is the average qubit transmission rate
sum_j <P_j F_j>, the expectation taken over Bloch-uniform inputs.  For real
weights it has closed forms, defined in ``rules`` and bound here.  The
Monte-Carlo estimator computes the inner sum exactly per sampled input,
sum_j P_j F_j = sum_j |a_j|alpha|^2 + b_j|beta|^2|^2 over the compiled
diag(a_j, b_j), a fixed quadratic in |alpha|^2, so sampling noise comes only
from the input average.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .protocols import ProtocolRun, compile_params
# The runners are no longer called here; they stay bound because
# perfbench/spans.py patches each layer at the names its callers bind.
from .protocols import run_nparty_bell, run_nparty_ghz, run_protocol1, run_protocol2  # noqa: F401
# The closed forms are defined in ``rules``, which imports no numpy; they
# stay public names of this module as well.
from .rules import (  # noqa: F401
    WEIGHTS,
    InputQubit,
    _integer,
    analytic_rate,
    concurrence,
    cpro1_analytic,
    cpro2_analytic,
)


@dataclass(frozen=True)
class EfficiencyReport:
    """Monte-Carlo transmission-rate estimate, with the closed form if defined.

    ``analytic`` is None for complex channel or basis weights, where only the
    estimate is meaningful.  ``std_error`` is the sample standard deviation
    over inputs divided by sqrt(samples).
    """

    analytic: float | None
    estimate: float
    samples: int
    std_error: float
    seed: int


def haar_sample(rng: np.random.Generator) -> InputQubit:
    """Draw a Bloch-uniform input qubit.

    (alpha, beta) = (cos(t/2), e^{i phi} sin(t/2)) with cos t uniform on
    [-1, 1] and phi uniform on [0, 2pi); |alpha|^2 is then uniform on [0, 1],
    reproducing <|a|^2> = 1/2, <|a|^4> = 1/3, <|ab|^2> = 1/6.  Exactly two
    uniform variates are consumed per call.
    """
    weight = 0.5 * (1.0 + rng.uniform(-1.0, 1.0))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return InputQubit(
        math.sqrt(weight),
        math.sqrt(1.0 - weight) * complex(math.cos(phase), math.sin(phase)),
    )


def transmission_sum(run: ProtocolRun) -> float:
    """Exact sum of branch probability times fidelity for one run."""
    return sum(b.probability * b.fidelity for b in run.branches)


def cpro_monte_carlo(
    protocol: str,
    params: Mapping,
    samples: int,
    seed: int,
    threads: int = 1,
) -> EfficiencyReport:
    """Average the exact per-input transmission sum over Haar-random inputs.

    ``params`` holds the runner arguments, named as the protocol's row of
    ``rules.PRESETS`` names them and validated as the runners validate them
    (``compile_params``).  ``samples`` (1 to ``sys.maxsize``) and ``seed``
    (at least 0) are integers; anything else raises ``ValueError``.  Each
    sample's input comes from its own generator spawned from the master
    seed.  Every sample's sum_j |a_j u + b_j v|^2, u = |alpha|^2 and
    v = |beta|^2, is A u^2 + D v^2 + B u v: A = sum |a_j|^2,
    D = sum |b_j|^2, B = 2 Re sum a_j conj(b_j).  ``threads`` is accepted
    and ignored.
    """
    samples, seed = _integer(samples, "samples"), _integer(seed, "seed")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > sys.maxsize:  # SeedSequence.spawn takes a C ssize_t
        raise ValueError(f"samples must be at most {sys.maxsize}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    compiled, _, _ = compile_params(protocol, params)
    a, b = compiled.diagonal.T
    uu, vv = (np.abs(a) ** 2).sum(), (np.abs(b) ** 2).sum()
    uv = 2.0 * (a * b.conj()).real.sum()
    inputs = [haar_sample(np.random.default_rng(child))
              for child in np.random.SeedSequence(seed).spawn(samples)]
    u, v = (np.abs([(q.alpha, q.beta) for q in inputs]) ** 2).T
    values = uu * u * u + vv * v * v + uv * u * v
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return EfficiencyReport(analytic_rate(protocol, params), estimate, samples,
                            std_error, seed)


@dataclass(frozen=True)
class ProtocolComparison:
    """Closed-form comparison of the two protocols sharing a channel weight."""

    cpro1: float
    cpro2: float
    cpro2_swapped: float
    first_at_least_second: bool
    equal: bool
    equality_expected: bool


def compare_protocols(
    n: float, m: float, n_other: float, tolerance: float = 1e-12
) -> ProtocolComparison:
    """Evaluate both closed forms with the shared weight n in either slot.

    The single-channel protocol is never the less efficient one; equality
    holds exactly when the other channel is maximal (c(n_other) = 1) or the
    shared concurrence product c(m)c(n) vanishes.
    """
    c1 = cpro1_analytic(n, m)
    c2 = cpro2_analytic(n, n_other, m)
    c2_swapped = cpro2_analytic(n_other, n, m)
    equal = abs(c1 - c2) <= tolerance
    equality_expected = (
        abs(concurrence(n_other) - 1.0) <= tolerance
        or concurrence(m) * concurrence(n) <= tolerance
    )
    return ProtocolComparison(
        c1, c2, c2_swapped,
        c1 >= c2 - tolerance and c1 >= c2_swapped - tolerance,
        equal, equality_expected,
    )
