"""Tests of the benchmark itself: spans, percentiles, checks and comparison."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import spans
import summary
import workloads
from qsts import protocols
from qsts.efficiency import EfficiencyReport

ROOT = Path(__file__).resolve().parents[2]


# ── self time of nested spans ────────────────────────────────────────────

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_covered_child_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer = tracer.begin()                 # t = 0
    clock.now = 1.0
    child = tracer.begin()
    clock.now = 3.0
    grandchild = tracer.begin()
    clock.now = 3.5
    tracer.end("leaf", grandchild)         # 0.5 s, all self
    clock.now = 4.0
    tracer.end("child", child)             # 3 s, 2.5 s self
    second = tracer.begin()
    clock.now = 6.0
    tracer.end("child", second)            # 2 s, all self
    clock.now = 10.0
    tracer.end("outer", outer)             # 10 s, 10 - 3 - 2 = 5 s self
    assert tracer.spans["leaf"] == [1, 0.5, 0.5]
    assert tracer.spans["child"] == [2, 5.0, 4.5]
    assert tracer.spans["outer"] == [1, 10.0, 5.0]


def test_install_counts_at_caller_bindings_and_restores():
    original = protocols.measure
    tracer = spans.Tracer()
    source = workloads.InputQubit(0.6, 0.8)
    with spans.install(tracer):
        run = protocols.run_protocol1(source, 0.5, 0.5)
        protocols.run_protocol1(source, 0.5, 0.5)
    assert protocols.measure is original
    assert tracer.calls("protocols.run") == 2
    assert tracer.calls("measurement.measure") == 2 * (1 + 4)  # Alice, then 4 X cascades
    assert tracer.counts["protocols.branches"] == 2 * len(run.branches)
    values = spans.layer_values(tracer, ops=2, trace_overhead=0.1)
    assert values["protocols.param_reuse"] == 0.5
    assert values["measurement.live_ratio"] == 1.0
    assert set(values) == set(spans.LAYER_METRICS)


def test_merge_judges_parameter_reuse_across_subprocesses():
    first, second = spans.Tracer(), spans.Tracer()
    first.note_params("a")
    second.note_params("a")
    second.note_params("b")
    second.note_params("b")
    total = spans.Tracer()
    total.merge(json.loads(json.dumps(first.payload())))
    total.merge(json.loads(json.dumps(second.payload())))
    assert total.counts["protocols.param_calls"] == 4
    assert total.counts["protocols.param_reused"] == 2


# ── percentiles and their sample-count gate ──────────────────────────────

def test_p90_is_nearest_rank_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert summary.p90(values) == 90
    assert sum(v > summary.p90(values) for v in values) == 10
    assert summary.p90(list(range(1, 201))) == 180


def test_p90_refuses_fewer_than_one_hundred_samples():
    with pytest.raises(ValueError, match="at least 100"):
        summary.p90(list(range(99)))


# ── each workload's checks flag a negative control ──────────────────────

def test_mc_check_flags_an_estimate_far_from_the_closed_form():
    report = EfficiencyReport(0.88, 0.88 + 6e-3, 400, 1e-3, 0)
    assert "standard errors" in workloads.check_estimate(report, 0.88)
    assert workloads.check_estimate(dataclasses.replace(report, estimate=0.884), 0.88) is None
    exact = EfficiencyReport(1.0, 1.0 - 1e-13, 400, 0.0, 0)
    assert workloads.check_estimate(exact, 1.0) is None
    assert "not a rate" in workloads.check_estimate(
        dataclasses.replace(report, estimate=math.nan), None)


def test_scan_check_flags_a_corrupted_fidelity_and_probability():
    source = workloads.InputQubit(0.6, 0.8j)
    run = protocols.run_protocol1(source, 0.5, protocols.choose_m("phi-plus", n=0.5))
    targets = protocols.strategy_targets("phi-plus")
    assert workloads.check_run(run, targets) is None

    def corrupt(**changes):
        branches = list(run.branches)
        branches[0] = dataclasses.replace(branches[0], **changes)
        return dataclasses.replace(run, branches=tuple(branches))

    assert "outside [0, 1]" in workloads.check_run(corrupt(fidelity=1.5))
    assert "strategy target" in workloads.check_run(corrupt(fidelity=0.9), targets)
    assert "sum to" in workloads.check_run(
        corrupt(probability=run.branches[0].probability + 1e-9))


def test_op_counts_undocumented_errors_and_accepts_documented_ones():
    def raise_(exc):
        raise exc

    overflow = workloads.Op("edge", lambda: raise_(OverflowError("boom")), lambda r: None,
                            allowed=(ValueError,))
    assert overflow.execute().failure == "OverflowError: boom"
    rejected = workloads.Op("edge", lambda: raise_(protocols.DegenerateChannelError("n = 0")),
                            lambda r: None, allowed=(ValueError,))
    assert rejected.execute().failure is None


def test_recorded_defect_is_matched_on_its_signature_not_on_the_op_kind():
    rng = np.random.default_rng(5)
    huge = workloads._edge_op(rng, "edge-huge")
    outcome = huge.execute()
    assert outcome.failure.startswith("OverflowError")
    assert outcome.known_defect == workloads.HUGE_WEIGHT.label

    source = workloads.InputQubit(0.6, 0.8)
    result = protocols.run_protocol1(source, 0.5, 0.5)
    bad = dataclasses.replace(result, branches=(
        dataclasses.replace(result.branches[0], fidelity=1.5),) + result.branches[1:])
    wrong_fidelity = dataclasses.replace(huge, call=lambda: bad)
    outcome = wrong_fidelity.execute()
    assert "outside [0, 1]" in outcome.failure and outcome.known_defect is None

    def overflow_elsewhere():
        raise OverflowError("(34, 'Numerical result out of range')")

    assert dataclasses.replace(huge, call=overflow_elsewhere).execute().known_defect is None
    assert not workloads.NAN_WEIGHT.matches(OverflowError("math range error"))
    assert workloads.NAN_WEIGHT.matches(OverflowError("absolute value too large"))


def test_an_unrecorded_failure_makes_the_run_incorrect():
    tally = run.Tally()
    tally.add_failures([workloads.Outcome("edge-huge", 1e-4, 1, "OverflowError: x",
                                          workloads.HUGE_WEIGHT.label)])
    assert tally.correct and tally.failed == 1
    tally.add_failures([workloads.Outcome("edge-huge", 1e-4, 1, "fidelity 1.5", None)])
    assert not tally.correct and tally.failed == 2
    assert len(tally.failures) == 2  # listed apart from the recorded defect


def test_scan_round_mix_is_fixed_and_reproducible():
    scan = workloads.Scan(7)
    first = [op.kind for op in scan.round(3)]
    assert first == [op.kind for op in workloads.Scan(7).round(3)]
    assert sorted(first) == sorted(op.kind for op in scan.round(4))
    assert len(first) == sum(count for _, count, _, _, _ in workloads.SCAN_MIX)


@pytest.fixture(scope="module")
def cli():
    return workloads.Cli(3, ROOT)


def test_cli_check_flags_the_corrupted_table_row(cli):
    corrupt = next(op for op in cli.ops if op.kind == "verify-tables-corrupt")
    assert corrupt.expect_exit == 4
    assert corrupt.execute().failure is None
    as_if_clean = dataclasses.replace(corrupt, kind="corrupt-as-clean", expect_exit=0,
                                      check=workloads.check_verify_ok)
    assert "exit 4, expected 0" in as_if_clean.execute().failure


def test_cli_check_flags_changed_output_for_identical_arguments(cli):
    op = next(op for op in cli.ops if op.kind == "efficiency-analytic-p1")
    assert op.execute().failure is None
    cli.runner.first_output[op.argv] = b'{"analytic": 0.5}\n'
    assert "differs" in op.execute().failure


def test_cli_defect_is_recognised_only_by_its_nan_output(cli):
    nonfinite = next(op for op in cli.ops if op.kind == "nonfinite-inf")
    outcome = nonfinite.execute()
    assert outcome.failure and outcome.known_defect == workloads.NONFINITE_CLI.label
    valid = next(op for op in cli.ops if op.kind == "efficiency-analytic-p1")
    misjudged = dataclasses.replace(valid, kind="valid-as-defect", expect_exit=2,
                                    defect=workloads.NONFINITE_CLI)
    outcome = misjudged.execute()
    assert "exit 0, expected 2" in outcome.failure and outcome.known_defect is None


def test_cli_output_checks_reject_non_json_and_bad_csv():
    with pytest.raises(ValueError):
        workloads.check_rate_json('{\n  "analytic": nan\n}\n')
    with pytest.raises(ValueError, match="non-finite"):
        workloads.check_rate_json('{"analytic": NaN}')
    assert "header" in workloads.check_run_csv("a,b\n1,2\n")
    assert "stdout" in workloads.check_empty("{}")


# ── the comparison step ──────────────────────────────────────────────────

def test_verdict_is_unresolved_when_spread_exceeds_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert summary.verdict(steady, noisy, 0.1, "lower") == summary.UNRESOLVED
    assert summary.verdict(noisy, steady, 0.1, "lower") == summary.UNRESOLVED
    assert summary.verdict(noisy, [10.0, 11.0, 12.0], 0.1, "lower") == summary.WITHIN


def test_verdict_flags_a_regression_beyond_the_bound_only():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert summary.verdict(base, [v * 1.05 for v in base], 0.1, "lower") == summary.WITHIN
    assert summary.verdict(base, [v * 1.2 for v in base], 0.1, "lower") == summary.REGRESSED
    assert summary.verdict(base, [v * 0.8 for v in base], 0.1, "higher") == summary.REGRESSED
    assert summary.verdict(base, [v * 1.2 for v in base], 0.1, "higher") == summary.WITHIN


THROUGHPUT = {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1}


def write_run(folder, index, throughput, failed=2, correct=True):
    folder.mkdir(exist_ok=True)
    doc = {"env": {"workload": "scan", "trace": 0},
           "result": {"correct": correct, "attempted": 200, "failed": failed,
                      "metrics": {"throughput": {"value": throughput, "unit": "1/s"}}}}
    (folder / f"{index}.json").write_text(json.dumps(doc))


def compare_dirs(tmp_path):
    rows = compare.compare(compare.load_runs(tmp_path / "base"),
                           compare.load_runs(tmp_path / "change"), [THROUGHPUT])
    return [(r["metric"], r["verdict"]) for r in rows]


def test_compare_reads_result_files(tmp_path):
    for i, value in enumerate((100.0, 101.0, 99.0, 100.0)):
        write_run(tmp_path / "base", i, value)
        write_run(tmp_path / "change", i, value * 0.7)
    assert compare_dirs(tmp_path) == [("throughput", summary.REGRESSED),
                                      (compare.FAILED_OPS, summary.WITHIN)]


def test_compare_flags_a_gain_bought_with_failing_ops(tmp_path):
    for i, value in enumerate((100.0, 101.0, 99.0, 100.0)):
        write_run(tmp_path / "base", i, value, failed=2 + i % 2)
        write_run(tmp_path / "change", i, value * 1.5, failed=5)
    assert compare_dirs(tmp_path) == [("throughput", summary.WITHIN),
                                      (compare.FAILED_OPS, summary.REGRESSED)]


def test_compare_flags_an_incorrect_change_run(tmp_path):
    for i, value in enumerate((100.0, 101.0, 99.0, 100.0)):
        write_run(tmp_path / "base", i, value)
        write_run(tmp_path / "change", i, value, correct=i != 2)
    rows = compare.compare(compare.load_runs(tmp_path / "base"),
                           compare.load_runs(tmp_path / "change"), [THROUGHPUT])
    assert rows[-1]["change_incorrect"] == 1 and rows[-1]["verdict"] == summary.REGRESSED


def test_benchmark_json_matches_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        spans.LAYER_METRICS
    names = {m["name"] for m in bench["end_to_end"]}
    assert names == {"setup_s", "throughput", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
