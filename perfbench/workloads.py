"""The benchmark's workloads: inputs made from the seed, ops, and their checks.

* ``mc-grid`` -- ``cpro_monte_carlo`` over a fixed grid of cells.  Every
  sample of a cell shares its parameters, so parameter reuse is high.
* ``scan`` -- one runner call per op, each with freshly drawn parameters,
  from four-qubit registers up to the 1024-branch ones.  Nothing is reused.
* ``cli`` -- cold ``python -m qsts`` subprocesses, one at a time.

A workload is a sequence of rounds; every round holds the same kinds of op
in the same numbers, so percentiles over whole rounds do not shift with how
many rounds a run fits.  Each op carries its own correctness check; a failing
op is counted and listed, never skipped.  An op that can hit a recorded defect
carries it as a ``Defect``, which recognises that defect's failure by its
signature; any other failure of the op is an unrecorded one.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qsts.efficiency as efficiency
import qsts.protocols as protocols
from qsts.states import InputQubit
from spans import TRACE_MARKER

PROBABILITY_SUM_TOL = 1e-12
MC_SIGMAS = 5.0
NOISE_FREE_TOL = 1e-12
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Defect:
    """A recorded defect of the package, and the signature of its failure.

    ``matches`` receives the exception an in-process op raised, or the
    finished process of a CLI invocation.
    """

    label: str
    matches: Callable[[Any], bool]


def _raised_in(exc: BaseException, function: str) -> bool:
    frames = traceback.extract_tb(exc.__traceback__)
    return bool(frames) and frames[-1].name == function


HUGE_WEIGHT = Defect(
    "ROADMAP 4a: |weight| >= 1.3e154 overflows in bases._weight_norm",
    lambda exc: isinstance(exc, OverflowError) and _raised_in(exc, "_weight_norm"))
NAN_WEIGHT = Defect(
    "ROADMAP 4: non-finite weights are not rejected up front; abs() of a "
    "NaN weight raises OverflowError when errno is left at ERANGE",
    lambda exc: isinstance(exc, OverflowError) and str(exc) == "absolute value too large")
NONFINITE_CLI = Defect(
    "ROADMAP 4b: non-finite weights reach the output as NaN, exit 0",
    lambda proc: proc.returncode == 0 and b'"analytic": nan' in proc.stdout)


@dataclass
class Outcome:
    kind: str
    latency_s: float
    units: float
    failure: str | None
    known_defect: str | None  # the label of the recorded defect the failure matched


@dataclass
class Op:
    """One in-process call into the package, with its check."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    units: float = 1.0
    allowed: tuple[type[BaseException], ...] = ()  # documented errors: a pass
    defect: Defect | None = None

    def execute(self, tracer=None) -> Outcome:
        failure = known = None
        start = time.perf_counter()
        try:
            result = self.call()
        except self.allowed:
            latency = time.perf_counter() - start
        except Exception as exc:  # any other error is a failing op, not a crash
            latency = time.perf_counter() - start
            failure = f"{type(exc).__name__}: {exc}"
            if self.defect is not None and self.defect.matches(exc):
                known = self.defect.label
        else:
            latency = time.perf_counter() - start
            failure = self.check(result)
        return Outcome(self.kind, latency, self.units, failure, known)


# ── input generation ─────────────────────────────────────────────────────

def bloch_input(rng: np.random.Generator) -> InputQubit:
    """Bloch-uniform input, drawn here so the package only receives it."""
    cos_theta = rng.uniform(-1.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return InputQubit(math.sqrt(0.5 * (1.0 + cos_theta)),
                      math.sqrt(0.5 * (1.0 - cos_theta)) * cmath.exp(1j * phase))


def real_weight(rng: np.random.Generator) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.5))


def complex_weight(rng: np.random.Generator) -> complex:
    return cmath.rect(rng.uniform(0.05, 1.5), rng.uniform(0.0, 2.0 * math.pi))


# ── checks ───────────────────────────────────────────────────────────────

def check_run(run, targets=frozenset()) -> str | None:
    """Probabilities sum to 1, every F in [0, 1], live targets at F = 1."""
    total = math.fsum(b.probability for b in run.branches)
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOL:
        return f"branch probabilities sum to {total!r}"
    for b in run.branches:
        if not 0.0 <= b.fidelity <= 1.0:
            return f"fidelity {b.fidelity!r} outside [0, 1] on {b.alice_label}"
        if (b.alice_label in targets and b.receiver_state is not None
                and b.fidelity < protocols.SUCCESS_FIDELITY):
            return f"strategy target {b.alice_label} reached only F = {b.fidelity!r}"
    return None


def check_rows(rows) -> str | None:
    bad = [f"{r.alice_label}/{r.helper_label}" for r in rows if not r.ok]
    return f"table rows failed: {', '.join(bad)}" if bad else None


def check_estimate(report, expected: float | None) -> str | None:
    """Finite and in [0, 1]; within 5 standard errors of a closed form if any."""
    estimate = report.estimate
    if not (math.isfinite(estimate) and 0.0 <= estimate <= 1.0 + NOISE_FREE_TOL):
        return f"estimate {estimate!r} is not a rate in [0, 1]"
    if expected is None:
        return None
    gap = abs(estimate - expected)
    if gap <= NOISE_FREE_TOL or gap <= MC_SIGMAS * report.std_error:
        return None
    return (f"estimate {estimate!r} is {gap / report.std_error:.1f} standard errors "
            f"from the closed form {expected!r}")


# ── mc-grid ──────────────────────────────────────────────────────────────

_P1_GRID = (0.1, 0.3, 0.5, 0.8, 1.0)  # the grid of acceptance criterion 06


def _mc_cells() -> list[tuple[str, str, dict, int, float | None]]:
    """(kind, protocol, params, samples, closed form or None) per cell.

    Sample counts make every cell cost about the same on the seed code, so
    one pass over the grid holds enough cells for a stable 90th percentile.
    """
    cpro1, cpro2 = efficiency.cpro1_analytic, efficiency.cpro2_analytic
    cells = [("p1-real", "p1", {"n": n, "m": m}, 320, cpro1(n, m))
             for n, m in itertools.product(_P1_GRID, _P1_GRID)]
    for n1, n2, m in ((0.3, 0.7, 0.5), (0.5, 0.5, 0.25), (0.8, 0.2, 0.6),
                      (0.4, 0.9, 1.0), (0.6, 0.6, 0.36), (1.0, 1.0, 1.0)):
        cells.append(("p2-real", "p2", {"n1": n1, "n2": n2, "m": m}, 200,
                      cpro2(n1, n2, m)))
    cells += [
        ("p1-complex", "p1", {"n": 0.5 + 0.3j, "m": 0.7 - 0.2j}, 320, None),
        ("p1-complex", "p1", {"n": 0.9j, "m": 0.4}, 320, None),
        ("p2-complex", "p2", {"n1": 0.5j, "n2": 0.8, "m": 0.3 + 0.3j}, 200, None),
        ("p2-complex", "p2", {"n1": 0.6, "n2": 0.4 - 0.4j, "m": 0.5}, 200, None),
        ("ghz4", "nparty-ghz", {"parties": 4, "n": 0.5, "m": 0.5}, 200, cpro1(0.5, 0.5)),
        ("ghz5", "nparty-ghz", {"parties": 5, "n": 0.3, "m": 0.8}, 100, cpro1(0.3, 0.8)),
        ("ghz6", "nparty-ghz", {"parties": 6, "n": 0.7, "m": 0.4}, 50, cpro1(0.7, 0.4)),
        ("bell3", "nparty-bell", {"ns": (0.5, 0.3), "m": 0.6}, 140, cpro2(0.5, 0.3, 0.6)),
        ("bell4", "nparty-bell", {"ns": (0.5, 0.4, 0.8), "m": 0.5}, 40, None),
        ("bell5", "nparty-bell", {"ns": (0.6, 0.6, 0.6, 0.6), "m": 0.8}, 12, None),
    ]
    return cells


class McGrid:
    """One op is one ``cpro_monte_carlo`` cell; throughput counts MC samples."""

    name = "mc-grid"

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = _mc_cells()

    def _op(self, cell, samples: int, mc_seed: int, expected: float | None) -> Op:
        kind, protocol, params = cell[:3]
        return Op(kind,
                  lambda: efficiency.cpro_monte_carlo(protocol, params, samples, mc_seed,
                                                      threads=1),
                  lambda report: check_estimate(report, expected),
                  units=samples)

    def round(self, index: int) -> list[Op]:
        seeds = np.random.SeedSequence([self.seed, index]).generate_state(len(self.cells))
        return [self._op(cell, cell[3], int(s), cell[4]) for cell, s in zip(self.cells, seeds)]

    def warm_up(self) -> list[Outcome]:
        # fills the bases caches for the grid's parameters, as repeated use
        # would; two samples are too few to test against a closed form
        return [self._op(cell, 2, i, None).execute() for i, cell in enumerate(self.cells)]


# ── scan ─────────────────────────────────────────────────────────────────

_P1_STRATEGIES = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")
_P2_STRATEGIES = ("ghz-plus", "ghz-minus", "g-plus", "g-minus",
                  "h-plus", "h-minus", "z-plus", "z-minus")
_PRODUCT_STRATEGIES = ("ghz-plus", "ghz-minus", "h-plus", "h-minus")


def _p1_op(rng, kind: str, weight) -> Op:
    n, m, q = weight(rng), weight(rng), bloch_input(rng)
    return Op(kind, lambda: protocols.run_protocol1(q, n, m), check_run)


def _p1_strategy_op(rng, kind: str) -> Op:
    name = str(rng.choice(_P1_STRATEGIES))
    n = (real_weight if rng.random() < 0.5 else complex_weight)(rng)
    q = bloch_input(rng)
    targets = protocols.strategy_targets(name, real=complex(n).imag == 0.0)
    return Op(kind, lambda: protocols.run_protocol1(q, n, protocols.choose_m(name, n=n)),
              lambda run: check_run(run, targets))


def _p2_op(rng, kind: str, weight) -> Op:
    n1, n2, m, q = weight(rng), weight(rng), weight(rng), bloch_input(rng)
    return Op(kind, lambda: protocols.run_protocol2(q, n1, n2, m), check_run)


def _p2_strategy_op(rng, kind: str) -> Op:
    name = str(rng.choice(_P2_STRATEGIES))
    weight = real_weight if rng.random() < 0.5 else complex_weight
    n1, n2, q = weight(rng), weight(rng), bloch_input(rng)
    targets = protocols.strategy_targets(name)
    return Op(kind, lambda: protocols.run_protocol2(
        q, n1, n2, protocols.choose_m(name, n1=n1, n2=n2)),
        lambda run: check_run(run, targets))


def _verify_op(rng, kind: str, table: int) -> Op:
    weight = real_weight if rng.random() < 0.5 else complex_weight
    q = bloch_input(rng)
    if table == 1:
        n, m = weight(rng), weight(rng)
        return Op(kind, lambda: protocols.verify_table1(n, m, q), check_rows)
    n1, n2, m = weight(rng), weight(rng), weight(rng)
    return Op(kind, lambda: protocols.verify_table2(n1, n2, m, q), check_rows)


def _ghz_op(rng, kind: str, parties: int) -> Op:
    style = rng.integers(3)
    n = (real_weight, complex_weight, real_weight)[style](rng)
    q = bloch_input(rng)
    if style == 2:
        name = str(rng.choice(_P1_STRATEGIES))
        targets = protocols.strategy_targets(name)
        return Op(kind, lambda: protocols.run_nparty_ghz(
            q, parties, n, protocols.choose_m(name, n=n)),
            lambda run: check_run(run, targets))
    m = (real_weight, complex_weight)[style](rng)
    return Op(kind, lambda: protocols.run_nparty_ghz(q, parties, n, m), check_run)


def _bell_op(rng, kind: str, parties: int) -> Op:
    style = rng.integers(3)
    weight = (real_weight, complex_weight, complex_weight)[style]
    ns = tuple(weight(rng) for _ in range(parties - 1))
    q = bloch_input(rng)
    if style == 2:
        name = str(rng.choice(_PRODUCT_STRATEGIES))
        targets = protocols.nparty_bell_targets(name, parties)
        return Op(kind, lambda: protocols.run_nparty_bell(
            q, ns, protocols.choose_m(name, ns=ns)),
            lambda run: check_run(run, targets))
    m = weight(rng)
    return Op(kind, lambda: protocols.run_nparty_bell(q, ns, m), check_run)


def _edge_op(rng, kind: str) -> Op:
    """An edge-weight op passes with a valid result or a documented ValueError."""
    q = bloch_input(rng)
    slot = int(rng.integers(2))
    weights = [real_weight(rng), real_weight(rng), real_weight(rng)]
    defect = None
    if kind == "edge-zero":
        weights[slot] = 0.0
    elif kind == "edge-tiny":
        weights[slot] = float(rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(200, 320))
    elif kind == "edge-huge":
        weights[slot] = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(155, 300))
        defect = HUGE_WEIGHT
    elif kind == "edge-nonfinite":
        weights[slot] = float(rng.choice((math.inf, -math.inf, math.nan)))
        defect = NAN_WEIGHT if math.isnan(weights[slot]) else None
    elif kind == "edge-zero-strategy":
        name = str(rng.choice(("phi-plus", "psi-minus")))  # both divide by n
        return Op(kind, lambda: protocols.run_protocol1(q, 0.0, protocols.choose_m(name, n=0.0)),
                  check_run, allowed=(ValueError,))
    else:
        raise ValueError(f"unknown edge kind {kind!r}")
    if rng.random() < 0.5:
        n, m = weights[0], weights[1]
        call = lambda: protocols.run_protocol1(q, n, m)  # noqa: E731
    else:
        n1, n2, m = weights
        call = lambda: protocols.run_protocol2(q, n1, n2, m)  # noqa: E731
    return Op(kind, call, check_run, allowed=(ValueError,), defect=defect)


#: (kind, ops per round, register size class, op factory, its arguments).
#: Large registers (8-11 qubits: nparty-ghz N >= 7, nparty-bell N >= 5) are
#: 44 of 273 ops and take about 60 % of a round's time; small ones (4-5
#: qubits: p1, p2, N <= 4) take about 37 %.  The 38 ghz7 ops put the 90th
#: percentile of op latency in the flat middle of their latencies rather than
#: on their low tail, so it follows large-register cost.
SCAN_MIX = (
    ("p1-real", 24, "small", _p1_op, (real_weight,)),
    ("p1-complex", 12, "small", _p1_op, (complex_weight,)),
    ("p1-strategy", 16, "small", _p1_strategy_op, ()),
    ("p2-real", 40, "small", _p2_op, (real_weight,)),
    ("p2-complex", 24, "small", _p2_op, (complex_weight,)),
    ("p2-strategy", 28, "small", _p2_strategy_op, ()),
    ("verify1", 6, "small", _verify_op, (1,)),
    ("verify2", 12, "small", _verify_op, (2,)),
    ("ghz3", 6, "small", _ghz_op, (3,)),
    ("ghz4", 24, "small", _ghz_op, (4,)),
    ("bell3", 24, "small", _bell_op, (3,)),
    ("edge-zero", 2, "small", _edge_op, ()),
    ("edge-zero-strategy", 1, "small", _edge_op, ()),
    ("edge-tiny", 2, "small", _edge_op, ()),
    ("edge-huge", 2, "small", _edge_op, ()),
    ("edge-nonfinite", 2, "small", _edge_op, ()),
    ("ghz5", 2, "medium", _ghz_op, (5,)),
    ("ghz6", 2, "medium", _ghz_op, (6,)),
    ("bell4", 2, "medium", _bell_op, (4,)),
    ("ghz7", 38, "large", _ghz_op, (7,)),
    ("ghz8", 1, "large", _ghz_op, (8,)),
    ("ghz10", 1, "large", _ghz_op, (10,)),
    ("bell5", 1, "large", _bell_op, (5,)),
    ("bell6", 1, "large", _bell_op, (6,)),
)

SCAN_SIZE_CLASS = {kind: size for kind, _, size, _, _ in SCAN_MIX}


class Scan:
    """One op is one runner or table-verification call with fresh parameters."""

    name = "scan"

    def __init__(self, seed: int):
        self.seed = seed

    def _ops(self, rng: np.random.Generator) -> list[Op]:
        ops = [make(rng, kind, *extra)
               for kind, count, _, make, extra in SCAN_MIX for _ in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def round(self, index: int) -> list[Op]:
        return self._ops(np.random.default_rng([self.seed, index]))

    def warm_up(self) -> list[Outcome]:
        # a separate stream: measured ops must still miss the bases caches
        return [op.execute() for op in self._ops(np.random.default_rng([self.seed, 1 << 31]))]


# ── cli ──────────────────────────────────────────────────────────────────

def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _rate(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0 + 1e-12


def check_run_json(stdout: str) -> str | None:
    doc = strict_json(stdout)
    total = math.fsum(b["probability"] for b in doc["branches"])
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOL:
        return f"branch probabilities sum to {total!r}"
    if not all(_rate(b["fidelity"]) for b in doc["branches"]):
        return "a fidelity lies outside [0, 1]"
    return None


def check_run_csv(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if lines[:1] != ["alice,helpers,probability,fidelity,correction"]:
        return f"unexpected CSV header {lines[:1]}"
    total = math.fsum(float(line.split(",")[2]) for line in lines[1:])
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOL:
        return f"branch probabilities sum to {total!r}"
    return None


def check_rate_json(stdout: str) -> str | None:
    doc = strict_json(stdout)
    rates = [doc[key] for key in ("analytic", "estimate") if key in doc]
    if not rates or not all(_rate(r) for r in rates):
        return f"rates {rates} are not in [0, 1]"
    return None


def check_sweep_csv(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if lines[:1] != ["param,value,analytic,estimate,std_error"] or len(lines) < 2:
        return f"unexpected sweep CSV {lines[:2]}"
    return None


def check_verify_ok(stdout: str) -> str | None:
    last = stdout.splitlines()[-1]
    return None if last.startswith("24/24 rows") else f"verify-tables reported {last!r}"


def check_verify_corrupt(stdout: str) -> str | None:
    if "FAIL table1 PhiPlus/XPlus" not in stdout:
        return "the corrupted row was not reported as failing"
    return None


def check_empty(stdout: str) -> str | None:
    return None if not stdout else f"an error exit wrote to stdout: {stdout[:60]!r}"


@dataclass
class CliOp:
    """One cold ``python -m qsts`` invocation, with its documented outcome."""

    kind: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], str | None]
    runner: "CliRunner"
    defect: Defect | None = None
    units: float = 1.0

    def execute(self, tracer=None) -> Outcome:
        proc, latency, failure = self.runner.invoke(self.argv, tracer)
        known = None
        if failure is None:
            failure = self.runner.verdict(self, proc)
            if failure is not None and self.defect is not None and self.defect.matches(proc):
                known = self.defect.label
        return Outcome(self.kind, latency, self.units, failure, known)


@dataclass
class CliRunner:
    """Runs invocations from the checkout's ``src``; remembers first outputs."""

    root: Path
    first_output: dict = field(default_factory=dict)

    def __post_init__(self):
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.probe = str(Path(__file__).resolve().parent / "cli_probe.py")

    def invoke(self, argv, tracer=None):
        command = [sys.executable] + (["-m", "qsts"] if tracer is None else [self.probe])
        start = time.perf_counter()
        try:
            proc = subprocess.run(command + list(argv), cwd=self.root, env=self.env,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, f"timed out after {CLI_TIMEOUT_S} s"
        latency = time.perf_counter() - start
        if tracer is not None:
            head, _, tail = proc.stderr.decode().rpartition(TRACE_MARKER)
            if tail:
                payload, _, rest = tail.partition("\n")  # a traceback may follow
                tracer.merge(json.loads(payload))
                proc.stderr = (head + rest).encode()
            tracer.counts["cli.bytes_out"] += len(proc.stdout)
        return proc, latency, None

    def verdict(self, op: CliOp, proc) -> str | None:
        stdout = proc.stdout.decode()
        first = self.first_output.setdefault(op.argv, proc.stdout)
        if proc.returncode != op.expect_exit:
            tail = proc.stderr.decode().strip().splitlines()[-1:] or [""]
            return f"exit {proc.returncode}, expected {op.expect_exit} ({tail[0][:120]})"
        if first != proc.stdout:
            return "output differs from an earlier run with identical arguments"
        try:
            return op.check(stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"


def _num(value: float) -> str:
    return format(value, ".6g")


class Cli:
    """One op is one invocation; a round is the seed's invocation list."""

    name = "cli"

    def __init__(self, seed: int, root: Path):
        self.runner = CliRunner(root)
        rng = np.random.default_rng([seed, 0xC11])
        w = lambda: _num(rng.uniform(0.1, 1.0))  # noqa: E731
        s = lambda: str(int(rng.integers(1 << 20)))  # noqa: E731
        p1 = ("--protocol", "p1")
        p2 = ("--protocol", "p2")
        z = complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))
        spec = [
            ("run-p1-json", ("run", *p1, "--n", w(), "--m", w(), "--input", "haar:" + s()),
             0, check_run_json, None),
            ("run-p1-strategy-csv", ("run", *p1, "--n", w(), "--m",
                                     "strategy:" + str(rng.choice(_P1_STRATEGIES)),
                                     "--input", "haar:" + s(), "--format", "csv"),
             0, check_run_csv, None),
            ("run-p1-complex-json", ("run", *p1, "--n", f"{_num(z.real)}{z.imag:+.6g}j",
                                     "--m", w(), "--input", "haar:" + s()),
             0, check_run_json, None),
            ("run-p2-json", ("run", *p2, "--n1", w(), "--n2", w(), "--m", w(),
                             "--input", "haar:" + s()), 0, check_run_json, None),
            ("run-p2-strategy-csv", ("run", *p2, "--n1", w(), "--n2", w(), "--m",
                                     "strategy:" + str(rng.choice(_P2_STRATEGIES)),
                                     "--input", "haar:" + s(), "--format", "csv"),
             0, check_run_csv, None),
            ("run-ghz-json", ("run", "--protocol", "nparty-ghz",
                              "--parties", str(int(rng.integers(4, 7))), "--n", w(),
                              "--m", w(), "--input", "haar:" + s()), 0, check_run_json, None),
            ("run-bell-csv", ("run", "--protocol", "nparty-bell",
                              "--n-list", ",".join(w() for _ in range(3)),
                              "--m", "strategy:ghz-minus", "--input", "haar:" + s(),
                              "--format", "csv"), 0, check_run_csv, None),
            ("verify-tables", ("verify-tables",), 0, check_verify_ok, None),
            ("verify-tables-corrupt", ("verify-tables", "--corrupt", "PhiPlus,XPlus"),
             4, check_verify_corrupt, None),
            ("efficiency-analytic-p1", ("efficiency", *p1, "--n", w(), "--m", w(),
                                        "--analytic-only"), 0, check_rate_json, None),
            ("efficiency-analytic-p2", ("efficiency", *p2, "--n1", w(), "--n2", w(),
                                        "--m", w(), "--analytic-only"),
             0, check_rate_json, None),
            ("efficiency-mc-p1", ("efficiency", *p1, "--n", w(), "--m", w(),
                                  "--samples", "600", "--seed", s()),
             0, check_rate_json, None),
        ] + [
            # three alike, so the 90th percentile falls inside their cluster
            ("efficiency-mc-p2", ("efficiency", *p2, "--n1", w(), "--n2", w(), "--m", w(),
                                  "--samples", "400", "--seed", s()),
             0, check_rate_json, None) for _ in range(3)
        ] + [
            ("sweep", ("sweep", *p1, "--param", "n", "--from", "0.2", "--to", "1.0",
                       "--steps", "4", "--m", "n", "--samples", "120", "--seed", s()),
             0, check_sweep_csv, None),
            ("bad-protocol", ("run", "--protocol", "p7", "--n", "1", "--m", "1"),
             2, check_empty, None),
            ("missing-weight", ("run", *p1, "--m", w()), 2, check_empty, None),
            ("unnormalised-input", ("run", *p1, "--n", w(), "--m", w(),
                                    "--input", "1,0,1,0"), 2, check_empty, None),
            ("degenerate-strategy", ("run", *p1, "--n", "0", "--m", "strategy:phi-plus",
                                     "--input", "haar:" + s()), 3, check_empty, None),
            ("nonfinite-inf", ("efficiency", *p1, "--n", w(), "--m", "inf",
                               "--analytic-only"), 2, check_empty, NONFINITE_CLI),
            ("nonfinite-nan", ("efficiency", *p2, "--n1", "nan", "--n2", w(), "--m", w(),
                               "--analytic-only"), 2, check_empty, NONFINITE_CLI),
        ]
        self.ops = [CliOp(kind, argv, code, check, self.runner, defect)
                    for kind, argv, code, check, defect in spec]

    def round(self, index: int) -> list[CliOp]:
        return self.ops

    def warm_up(self) -> list[Outcome]:
        # one cold start leaves the byte-code cache and file cache warm
        return [self.ops[0].execute()]


def build(name: str, seed: int, root: Path):
    if name == "mc-grid":
        return McGrid(seed)
    if name == "scan":
        return Scan(seed)
    if name == "cli":
        return Cli(seed, root)
    raise ValueError(f"unknown workload {name!r}")
