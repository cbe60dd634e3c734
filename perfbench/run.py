"""qsts benchmark: one workload, one fresh process, every output checked.

    python3 perfbench/run.py --workload {mc-grid,scan,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run times whole rounds of ops for at least ``--seconds``
seconds (and at least 100 ops, so the 90th percentile has ten ops beyond it)
and reports the end-to-end metrics.  With ``--trace 1`` it times rounds
untraced for half of ``--seconds``, replays the same ops under the span
tracer and reports the per-layer metrics.  The last line of stdout is the
result object; the lines before it record the environment and every failing
op.  ``--out FILE`` also writes all of it as one JSON document, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WORKLOADS = ("mc-grid", "scan", "cli")


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsts").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """What the timed ops did, kept compact: the benchmark's own memory and
    garbage-collection work must not grow with the number of ops."""

    def __init__(self):
        self.latencies = array("d")
        self.by_kind: dict[str, array] = {}
        self.round_rates: list[float] = []
        self.attempted = 0
        # (op kind, recorded defect or None) -> count and first reason, so that
        # an unrecorded failure is listed apart from a recorded defect's
        self.failures: dict[tuple[str, str | None], dict] = {}

    def add_failures(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.failure is not None:
                self._count(o.kind, o.known_defect, 1, o.failure)

    def _count(self, kind, known_defect, count, first) -> None:
        entry = self.failures.setdefault((kind, known_defect), {
            "kind": kind, "known_defect": known_defect, "count": 0, "first": first})
        entry["count"] += count

    def absorb_failures(self, other: "Tally") -> None:
        self.attempted += other.attempted
        for (kind, known), entry in other.failures.items():
            self._count(kind, known, entry["count"], entry["first"])

    def add_round(self, outcomes) -> None:
        self.add_failures(outcomes)
        for o in outcomes:
            self.latencies.append(o.latency_s)
            self.by_kind.setdefault(o.kind, array("d")).append(o.latency_s)
        self.round_rates.append(sum(o.units for o in outcomes)
                                / sum(o.latency_s for o in outcomes))

    @property
    def failed(self) -> int:
        return sum(f["count"] for f in self.failures.values())

    @property
    def correct(self) -> bool:
        """Failures of recorded defects are counted but do not make a run wrong."""
        return all(known for _, known in self.failures)

    def kind_report(self, size_class=None) -> dict:
        report = {kind: {"ops": len(lat), "p50_ms": statistics.median(lat) * 1e3}
                  for kind, lat in sorted(self.by_kind.items())}
        if size_class:
            total = sum(self.latencies)
            shares: dict[str, float] = {}
            for kind, lat in self.by_kind.items():
                shares[size_class[kind]] = shares.get(size_class[kind], 0.0) + sum(lat) / total
            report["time_share_by_register_size"] = shares
        return report


def run_rounds(workload, seconds: float, min_ops: int,
               between=lambda busy: None, keep: bool = False):
    """Execute whole rounds until ``seconds`` of op time and ``min_ops`` ops.

    ``between`` is called after each round with the op time so far; ``keep``
    returns the rounds' ops so that they can be replayed.
    """
    tally, kept = Tally(), []
    index, busy = 0, 0.0
    while True:
        ops = workload.round(index)
        index += 1
        outcomes = [op.execute() for op in ops]
        busy += sum(o.latency_s for o in outcomes)
        tally.add_round(outcomes)
        if keep:
            kept.append(ops)
        between(busy)
        if busy >= seconds and len(tally.latencies) >= min_ops:
            return tally, kept


def setup_probe(args) -> float:
    """Seconds from starting a fresh process until its workload is ready to time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1]) - started


def peak_rss_mb(workload_name: str) -> float:
    # the cli workload's memory is that of the qsts processes it starts
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qsts" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qsts'}; run from a qsts checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qsts
    if Path(qsts.__file__).resolve().parent != (SRC / "qsts").resolve():
        print(f"error: imported qsts from {qsts.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import summary
    import workloads

    workload = workloads.build(args.workload, args.seed, ROOT)
    warm = workload.warm_up()
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    if args.trace == 0:
        # Set-up probes are spread over the run, so that one slow spell of the
        # machine moves at most a few of them.  The cli workload's memory is
        # read from its finished children, so its probes wait until the end.
        setup_times: list[float] = []

        def probe_when_due(busy: float) -> None:
            if args.workload != "cli" and len(setup_times) < SETUP_PROBES and \
                    busy >= len(setup_times) * args.seconds / SETUP_PROBES:
                setup_times.append(setup_probe(args))

        tally, _ = run_rounds(workload, args.seconds, summary.MIN_OPS_FOR_P90,
                              between=probe_when_due)
        rss = peak_rss_mb(args.workload)
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args))
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput": statistics.median(tally.round_rates),
            "op_p50_ms": statistics.median(tally.latencies) * 1e3,
            "op_p90_ms": summary.p90(tally.latencies) * 1e3,
            "peak_rss_mb": rss,
        }
        units = {"setup_s": "s", "throughput": "1/s", "op_p50_ms": "ms",
                 "op_p90_ms": "ms", "peak_rss_mb": "MiB"}
    else:
        tally, rounds = run_rounds(workload, args.seconds / 2, 1, keep=True)
        tracer = spans.Tracer()
        traced = Tally()
        with spans.install(tracer):
            for ops in rounds:
                traced.add_round([op.execute(tracer) for op in ops])
        overhead = sum(traced.latencies) / sum(tally.latencies) - 1.0
        values = spans.layer_values(tracer, len(traced.latencies), overhead)
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        tally.absorb_failures(traced)
    tally.add_failures(warm)

    ops = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "timed_ops": len(tally.latencies),
        "by_kind": tally.kind_report(workloads.SCAN_SIZE_CLASS
                                     if args.workload == "scan" else None),
    }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    failures = list(tally.failures.values())
    env = environment(args)
    print(json.dumps({"env": env}))
    print(json.dumps({"ops": ops, "failures": failures}))
    print(json.dumps(result))
    if args.out:
        document = {"env": env, "ops": ops, "failures": failures, "result": result}
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
