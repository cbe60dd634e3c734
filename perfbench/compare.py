"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are result files written by ``run.py --out`` or directories
holding them; only untraced runs are read.  For each end-to-end metric of
BENCHMARK.json and each workload the comparison reports the two medians,
each side's spread (quartile distance over median) and a verdict:

* ``within``     -- the change's median is no worse than the base's by more
                    than the metric's bound;
* ``regressed``  -- it is worse by more than the bound;
* ``unresolved`` -- a side's spread exceeds the bound, so noise and a
                    regression cannot be told apart (unless every change run
                    beats every base run, which counts as within).

Each workload also gets a ``failed_ops`` row: both sides' failed and
attempted ops and their runs with ``correct`` false.  It reads ``regressed``
when a change run is not correct, or when the change's median error rate
exceeds the highest of the base runs -- a speed-up bought by failing more
ops is no gain.

Exits 1 if any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent
FAILED_OPS = "failed_ops"


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> the result objects of its untraced runs."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        document = json.loads(file.read_text())
        if document.get("env", {}).get("trace") != 0:
            continue
        runs.setdefault(document["env"]["workload"], []).append(document["result"])
    return runs


def _error_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]


def failure_row(workload: str, base: list[dict], change: list[dict]) -> dict:
    row = {"workload": workload, "metric": FAILED_OPS}
    for side, results in (("base", base), ("change", change)):
        row[f"{side}_failed"] = sum(r["failed"] for r in results)
        row[f"{side}_attempted"] = sum(r["attempted"] for r in results)
        row[f"{side}_incorrect"] = sum(not r["correct"] for r in results)
    if not base or not change:
        row["verdict"] = summary.UNRESOLVED
    elif row["change_incorrect"] or (statistics.median(map(_error_rate, change))
                                     > max(map(_error_rate, base))):
        row["verdict"] = summary.REGRESSED
    else:
        row["verdict"] = summary.WITHIN
    return row


def compare(base, change, end_to_end) -> list[dict]:
    rows = []
    for workload in sorted(set(base) | set(change)):
        base_runs, change_runs = base.get(workload, []), change.get(workload, [])
        for metric in end_to_end:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change_runs if name in r["metrics"]]
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "bound": metric["bound"], "base_runs": len(b), "change_runs": len(c),
                   "verdict": summary.verdict(b, c, metric["bound"], metric["better"])}
            if len(b) >= 2 and len(c) >= 2:
                base_median, change_median = statistics.median(b), statistics.median(c)
                row.update(base_median=base_median, change_median=change_median,
                           worse_by=summary.worsening(base_median, change_median,
                                                      metric["better"]),
                           base_spread=summary.spread(b), change_spread=summary.spread(c))
            rows.append(row)
        rows.append(failure_row(workload, base_runs, change_runs))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    end_to_end = json.loads(args.benchmark.read_text())["end_to_end"]
    rows = compare(load_runs(args.base), load_runs(args.change), end_to_end)
    print(f"{'workload':<9} {'metric':<12} {'base':>11} {'change':>11} {'worse':>8} "
          f"{'spreads':>13} {'bound':>6}  verdict")
    for r in rows:
        if r["metric"] == FAILED_OPS:
            numbers = (f"{r['base_failed']}/{r['base_attempted']} failed, "
                       f"{r['base_incorrect']} runs not correct -> "
                       f"{r['change_failed']}/{r['change_attempted']} failed, "
                       f"{r['change_incorrect']} not correct")
            print(f"{r['workload']:<9} {r['metric']:<12} {numbers}  {r['verdict']}")
            continue
        if "base_median" in r:
            numbers = (f"{r['base_median']:>11.5g} {r['change_median']:>11.5g} "
                       f"{r['worse_by']:>+8.1%} {r['base_spread']:>6.1%} "
                       f"{r['change_spread']:>6.1%}")
        else:
            numbers = f"{'runs: ' + str(r['base_runs']) + '/' + str(r['change_runs']):>54}"
        print(f"{r['workload']:<9} {r['metric']:<12} {numbers} {r['bound']:>6.0%}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == summary.REGRESSED for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
