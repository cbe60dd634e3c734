"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

Spans are recorded from the benchmark's own files, around the calls into each
layer of the package.  ``install`` replaces a function at every name its
callers bind -- ``from .measurement import measure`` copies the reference, so
``qsts.protocols.measure`` is replaced as well as ``qsts.measurement.measure``
-- and puts the originals back on exit.

Spans are aggregated in memory per name (calls, total seconds, self seconds)
rather than stored one by one: the MC workload opens millions of them.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

#: Starts the stderr line on which a traced CLI subprocess reports its spans.
TRACE_MARKER = "PERFBENCH_TRACE "


class Tracer:
    """Nested spans aggregated per name, plus event counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._covered: list[float] = []    # child-covered seconds of each open span
        self._seen_params: set[str] = set()

    def begin(self) -> float:
        self._covered.append(0.0)
        return self.clock()

    def end(self, name: str, start: float) -> None:
        duration = self.clock() - start
        covered = self._covered.pop()
        if self._covered:
            self._covered[-1] += duration
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - covered

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def note_params(self, key: str) -> None:
        """Count a runner call, and whether its parameters were seen before."""
        self.counts["protocols.param_calls"] += 1
        if key in self._seen_params:
            self.counts["protocols.param_reused"] += 1
        else:
            self._seen_params.add(key)

    def payload(self) -> dict:
        """JSON-ready summary, sent back by a traced CLI subprocess."""
        return {"spans": self.spans, "counts": dict(self.counts),
                "params": sorted(self._seen_params)}

    def merge(self, payload: dict) -> None:
        """Fold in the summary of a traced subprocess."""
        for name, (calls, total, self_time) in payload["spans"].items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += self_time
        counts = Counter(payload["counts"])
        calls = counts.pop("protocols.param_calls", 0)
        counts.pop("protocols.param_reused", None)
        self.counts.update(counts)
        # a subprocess sees only its own calls: judge reuse across the whole run
        fresh = set(payload["params"]) - self._seen_params
        self.counts["protocols.param_calls"] += calls
        self.counts["protocols.param_reused"] += calls - len(fresh)
        self._seen_params |= fresh


# ── counters taken at the span boundaries ────────────────────────────────

def _count_amps(tracer, args, kwargs, result):
    tracer.counts["states.amps"] += result.amplitudes.size


def _count_fidelity(tracer, args, kwargs, result):
    tracer.counts["states.amps"] += args[0].dim + args[1].dim


def _count_measure(tracer, args, kwargs, outcomes):
    state, targets = args[0], args[1]
    counts = tracer.counts
    counts["measurement.outcomes"] += len(outcomes)
    counts["measurement.amps_touched"] += state.dim * (len(outcomes) + 1)
    if state.num_qubits > len(targets):
        counts["measurement.nonfinal_outcomes"] += len(outcomes)
        counts["measurement.live_outcomes"] += sum(o.post_state is not None for o in outcomes)


def _count_run(tracer, args, kwargs, run):
    counts = tracer.counts
    counts["protocols.branches"] += len(run.branches)
    counts["protocols.dead_branches"] += sum(b.receiver_state is None for b in run.branches)
    tracer.note_params(repr((run.protocol, args[1:], sorted(kwargs.items()))))


def _count_samples(tracer, args, kwargs, report):
    tracer.counts["efficiency.samples"] += report.samples


_STATES_CALLERS = ("qsts.states", "qsts.protocols")
_BASES_CALLERS = ("qsts.bases", "qsts.protocols")
_RUNNER_CALLERS = ("qsts.protocols", "qsts.efficiency", "qsts.cli")

# (span name, attribute, modules whose binding is replaced, counter hook)
PATCHES = (
    ("states.tensor", "tensor", _STATES_CALLERS, _count_amps),
    ("states.apply_unitary", "apply_unitary", _STATES_CALLERS, _count_amps),
    ("states.fidelity", "fidelity", _STATES_CALLERS, _count_fidelity),
    ("bases", "generalized_bell_basis", _BASES_CALLERS, None),
    ("bases", "generalized_ghz_basis", _BASES_CALLERS, None),
    ("bases", "generalized_pair_basis", _BASES_CALLERS, None),
    ("bases", "x_basis", _BASES_CALLERS, None),
    ("bases", "channel_ghz", _BASES_CALLERS, None),
    ("bases", "channel_bell", _BASES_CALLERS, None),
    ("measurement.measure", "measure", ("qsts.measurement", "qsts.protocols"), _count_measure),
    ("protocols.run", "run_protocol1", _RUNNER_CALLERS, _count_run),
    ("protocols.run", "run_protocol2", _RUNNER_CALLERS, _count_run),
    ("protocols.run", "run_nparty_ghz", _RUNNER_CALLERS, _count_run),
    ("protocols.run", "run_nparty_bell", _RUNNER_CALLERS, _count_run),
    ("protocols.verify", "verify_table1", ("qsts.protocols", "qsts.cli"), None),
    ("protocols.verify", "verify_table2", ("qsts.protocols", "qsts.cli"), None),
    ("efficiency.mc", "cpro_monte_carlo", ("qsts.efficiency", "qsts.cli"), _count_samples),
    ("efficiency.haar_sample", "haar_sample", ("qsts.efficiency", "qsts.cli"), None),
    ("efficiency.transmission_sum", "transmission_sum", ("qsts.efficiency",), None),
)


def traced(tracer: Tracer, name: str, fn, hook=None, outermost_only: bool = False):
    """Wrap ``fn`` in a span; ``outermost_only`` skips recursive calls."""
    depth = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost_only and depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        start = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name, start)
            depth[0] -= 1
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _traced_build_parser(tracer: Tracer, build_parser):
    # parse time = building the parser plus parsing argv
    def wrapper():
        parser = traced(tracer, "cli.parse", build_parser)()
        parser.parse_args = traced(tracer, "cli.parse", parser.parse_args)
        return parser
    return wrapper


@contextlib.contextmanager
def install(tracer: Tracer):
    """Replace the package's layer entry points with traced wrappers."""
    saved = []

    def patch(module_name, attribute, replacement):
        module = importlib.import_module(module_name)
        saved.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, replacement)

    try:
        for name, attribute, callers, hook in PATCHES:
            original = getattr(importlib.import_module(callers[0]), attribute)
            wrapper = traced(tracer, name, original, hook)
            for module_name in callers:
                patch(module_name, attribute, wrapper)
        cli = importlib.import_module("qsts.cli")
        patch("qsts.cli", "render_json",
              traced(tracer, "cli.render_json", cli.render_json, outermost_only=True))
        patch("qsts.cli", "build_parser", _traced_build_parser(tracer, cli.build_parser))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


# ── per-layer metrics ────────────────────────────────────────────────────

#: name -> (unit, better).  Counts and seconds are per op of the traced phase.
LAYER_METRICS = {
    "states.tensor.calls": ("calls/op", "lower"),
    "states.tensor.self_s": ("s/op", "lower"),
    "states.apply_unitary.calls": ("calls/op", "lower"),
    "states.apply_unitary.self_s": ("s/op", "lower"),
    "states.fidelity.calls": ("calls/op", "lower"),
    "states.fidelity.self_s": ("s/op", "lower"),
    "states.amps_computed": ("amps/op", "lower"),
    "bases.calls": ("calls/op", "lower"),
    "bases.self_s": ("s/op", "lower"),
    "measurement.measure.calls": ("calls/op", "lower"),
    "measurement.measure.self_s": ("s/op", "lower"),
    "measurement.outcomes": ("outcomes/op", "lower"),
    "measurement.live_ratio": ("ratio", "higher"),
    "measurement.amps_touched": ("amps/op", "lower"),
    "protocols.runs": ("calls/op", "lower"),
    "protocols.self_s": ("s/op", "lower"),
    "protocols.branches": ("branches/op", "lower"),
    "protocols.dead_branches": ("branches/op", "lower"),
    "protocols.param_reuse": ("ratio", "higher"),
    "protocols.verify.self_s": ("s/op", "lower"),
    "efficiency.mc.calls": ("calls/op", "lower"),
    "efficiency.mc.self_s": ("s/op", "lower"),
    "efficiency.haar_sample.calls": ("calls/op", "lower"),
    "efficiency.haar_sample.self_s": ("s/op", "lower"),
    "efficiency.transmission_sum.self_s": ("s/op", "lower"),
    "efficiency.samples": ("samples/op", "higher"),
    "cli.import_s": ("s/op", "lower"),
    "cli.main.self_s": ("s/op", "lower"),
    "cli.parse_s": ("s/op", "lower"),
    "cli.render_json.self_s": ("s/op", "lower"),
    "cli.bytes_out": ("bytes/op", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer, ops: int, trace_overhead: float) -> dict[str, float]:
    """Per-layer metric values; a layer the workload never calls reads 0."""
    counts = tracer.counts
    per_op = 1.0 / ops

    def span(name: str) -> tuple[float, float]:
        return tracer.calls(name) * per_op, tracer.self_s(name) * per_op

    values: dict[str, float] = {}
    for name in ("states.tensor", "states.apply_unitary", "states.fidelity", "bases",
                 "measurement.measure", "efficiency.mc", "efficiency.haar_sample"):
        values[f"{name}.calls"], values[f"{name}.self_s"] = span(name)
    values["states.amps_computed"] = counts["states.amps"] * per_op
    values["measurement.outcomes"] = counts["measurement.outcomes"] * per_op
    values["measurement.live_ratio"] = _ratio(counts["measurement.live_outcomes"],
                                              counts["measurement.nonfinal_outcomes"])
    values["measurement.amps_touched"] = counts["measurement.amps_touched"] * per_op
    values["protocols.runs"], values["protocols.self_s"] = span("protocols.run")
    values["protocols.branches"] = counts["protocols.branches"] * per_op
    values["protocols.dead_branches"] = counts["protocols.dead_branches"] * per_op
    values["protocols.param_reuse"] = _ratio(counts["protocols.param_reused"],
                                             counts["protocols.param_calls"])
    values["protocols.verify.self_s"] = span("protocols.verify")[1]
    values["efficiency.transmission_sum.self_s"] = span("efficiency.transmission_sum")[1]
    values["efficiency.samples"] = counts["efficiency.samples"] * per_op
    values["cli.import_s"] = span("cli.import")[1]
    values["cli.main.self_s"] = span("cli.main")[1]
    values["cli.parse_s"] = span("cli.parse")[1]
    values["cli.render_json.self_s"] = span("cli.render_json")[1]
    values["cli.bytes_out"] = counts["cli.bytes_out"] * per_op
    values["trace_overhead"] = trace_overhead
    return values
