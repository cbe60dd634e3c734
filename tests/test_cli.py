"""CLI subcommands: output schema, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsts
from conftest import exact_haar_rate
from qsts import (choose_m, cli, cpro2_analytic, cpro_monte_carlo, efficiency,
                  strategy_targets)
from qsts.protocols import PRODUCT_RULES, compile_params

RUN = [sys.executable, "-m", "qsts"]
README = Path(__file__).resolve().parent.parent / "README.md"


def invoke(*args, **kwargs):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, **kwargs)


# ── run ──────────────────────────────────────────────────────────────────

def test_run_p1_maximal_weights_json():
    result = invoke("run", "--protocol", "p1", "--n", "1", "--m", "1",
                    "--input", "1,0,0,0")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["protocol"] == "p1"
    assert doc["classical_bits"] == 3
    assert len(doc["branches"]) == 8
    assert all(b["fidelity"] == 1.0 for b in doc["branches"])
    assert doc["success_probability"] == pytest.approx(1.0, abs=1e-12)


def test_run_strategy_resolution_in_output():
    result = invoke("run", "--protocol", "p1", "--n", "0.5",
                    "--m", "strategy:phi-plus", "--input", "0.6,0,0.8,0")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["params"]["m"] == 2.0
    assert doc["params"]["n"] == 0.5


def test_run_p2_maximal_weights():
    result = invoke("run", "--protocol", "p2", "--n1", "1", "--n2", "1",
                    "--m", "1", "--input", "0.6,0,0.8,0")
    doc = json.loads(result.stdout)
    assert len(doc["branches"]) == 16
    assert all(b["fidelity"] == pytest.approx(1.0, abs=1e-12) for b in doc["branches"])


def test_run_nparty_and_csv_format():
    result = invoke("run", "--protocol", "nparty-ghz", "--n", "0.5", "--m", "0.5",
                    "--parties", "4", "--input", "0.6,0,0.8,0", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "alice,helpers,probability,fidelity,correction"
    assert len(lines) == 1 + 4 * 4  # four Alice outcomes x two helpers
    assert lines[1].split(",")[1].count("+") == 1  # two helper labels joined


#: ``run --format csv`` stdout, correction names included, as sha256 digests,
#: with complex weights at every receiver.  p2 and nparty-bell at N = 3 share
#: one layout but name three of its corrections differently (XZ, ZX).
CSV_PINS = {
    "p1-bob": (("--protocol", "p1", "--n", "0.45+0.3j", "--m", "0.8-0.2j", "--receiver", "bob"),
               "af6513c5f2c79bacb98e4f86591c75a2c558b956f630eef521e2ccec65279188"),
    "p1-charlie": (("--protocol", "p1", "--n", "0.45+0.3j", "--m", "0.8-0.2j"),
                   "af6513c5f2c79bacb98e4f86591c75a2c558b956f630eef521e2ccec65279188"),
    "p2-bob": (("--protocol", "p2", "--n1", "0.5+0.2j", "--n2", "0.3-0.4j", "--m", "0.7+0.3j",
                "--receiver", "bob"),
               "1d07a34a0ff49acac9681adda66502d56623f8509b8cdb5023242aeccc32b8cd"),
    "p2-charlie": (("--protocol", "p2", "--n1", "0.5+0.2j", "--n2", "0.3-0.4j",
                    "--m", "0.7+0.3j"),
                   "bdad9bf2abfefed202236cd55cd3d50e0502982cfc546ac1d47c271f37a2731b"),
    **{f"ghz4-party{r}": (("--protocol", "nparty-ghz", "--parties", "4", "--n", "0.6-0.1j",
                           "--m", "0.9+0.4j", "--receiver", str(r)),
                          "b743a1dd944a0e1fc3c1867e49d76a5e7521321c953d3c0d03e774ccf6d1ee7f")
       for r in (1, 2, 3)},
    "bell3-party1": (("--protocol", "nparty-bell", "--n-list", "0.5+0.2j,0.3-0.4j",
                      "--m", "0.7+0.3j", "--receiver", "1"),
                     "44ff3a64d315834d0ed88e02fb2017a29499e727628083bdd753ea15a2bed109"),
    "bell3-party2": (("--protocol", "nparty-bell", "--n-list", "0.5+0.2j,0.3-0.4j",
                      "--m", "0.7+0.3j", "--receiver", "2"),
                     "e6470c8dd42adef60384cd8a4a4788efcb141fbe8e039f205677f2d55e67e866"),
    **{f"bell4-party{r}": (("--protocol", "nparty-bell", "--n-list", "0.5,0.4-0.2j,0.8j",
                            "--m", "0.6+0.25j", "--receiver", str(r)), digest)
       for r, digest in ((1, "c9e8b59cc1ce89407ffba418d119f843fa9b3a767527517b48c898c98dccca9b"),
                         (2, "055fcceb8449b66b80ca2f2f85cf183d60b21eddeb53d6e9da80fea0b6694888"),
                         (3, "59f7092a299052cb2855fdb70982f6a3d3734fb49d0be01e885228833718c2ee"))},
}


@pytest.mark.parametrize("name", CSV_PINS)
def test_run_csv_matches_its_pinned_digest(capsys, name):
    args, digest = CSV_PINS[name]
    out = _main_stdout(capsys, "run", *args, "--input", "haar:5", "--format", "csv")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("receiver", ["bob", "charlie"])
@pytest.mark.parametrize("strategy", ["z-plus", "g-plus", "z-minus", "g-minus"])
def test_ratio_strategy_hits_its_targets_at_either_receiver(strategy, receiver):
    # the ratio rules read the helper's and the receiver's channel weights,
    # which a Bob receiver swaps
    result = invoke("run", "--protocol", "p2", "--n1", "0.5", "--n2", "0.3",
                    "--m", f"strategy:{strategy}", "--receiver", receiver,
                    "--input", "0.6,0,0.8,0")
    assert result.returncode == 0, result.stderr
    hit = {b["alice"] for b in json.loads(result.stdout)["branches"]
           if b["fidelity"] >= 1 - 1e-9}
    assert hit == strategy_targets(strategy)


def test_run_rejects_inconsistent_config():
    result = invoke("run", "--protocol", "p1", "--m", "1", "--input", "1,0,0,0")
    assert result.returncode == 2
    assert "needs --n" in result.stderr


@pytest.mark.parametrize(
    "args, missing",
    [
        (("--protocol", "p2", "--n1", "0.5"), "p2 needs --n2"),
        (("--protocol", "p2"), "p2 needs --n1 and --n2"),
        (("--protocol", "nparty-ghz", "--n", "0.5"), "nparty-ghz needs --parties"),
        (("--protocol", "nparty-ghz", "--parties", "4"), "nparty-ghz needs --n"),
        (("--protocol", "nparty-bell"), "nparty-bell needs --n-list"),
    ],
    ids=("p2-n2", "p2-both", "ghz-parties", "ghz-n", "bell"),
)
def test_run_names_each_missing_channel_flag(args, missing):
    result = invoke("run", *args, "--m", "1", "--input", "1,0,0,0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {missing}\n"


def test_run_rejects_unnormalised_input():
    result = invoke("run", "--protocol", "p1", "--n", "1", "--m", "1",
                    "--input", "1,0,1,0")
    assert result.returncode == 2


@pytest.mark.parametrize("amplitudes", ["1e200,0,0,0", "1e308,1e308,0,0"])
def test_run_rejects_an_input_whose_weight_is_no_double(amplitudes):
    result = invoke("run", "--protocol", "p1", "--n", "1", "--m", "1",
                    "--input", amplitudes)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "expected 1" in result.stderr


def test_degenerate_strategy_exit_code():
    result = invoke("run", "--protocol", "p1", "--n", "0", "--m", "strategy:phi-plus",
                    "--input", "1,0,0,0")
    assert result.returncode == 3


def test_invalid_arguments_exit_code():
    result = invoke("run", "--protocol", "p7", "--n", "1", "--m", "1")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (("--protocol", "nparty-ghz", "--parties", "2", "--n", "0.5"),
         "takes 3..10 parties, got 2"),
        (("--protocol", "nparty-bell", "--n-list", "0.5,0.5,0.5,0.5,0.5,0.5"),
         "takes 3..6 parties, got 7"),
        (("--protocol", "nparty-ghz", "--parties", "4", "--n", "0.5", "--receiver", "4"),
         "receiver_index 4 out of range for 4 parties"),
    ],
    ids=("ghz-2-parties", "bell-7-parties", "receiver-4-of-4"),
)
def test_layout_outside_the_party_caps_exits_2_naming_it(args, message):
    result = invoke("run", *args, "--m", "0.5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert message in result.stderr


def test_run_huge_weight_is_strict_json():
    result = invoke("run", "--protocol", "p1", "--n", "1e155", "--m", "0.5")
    assert result.returncode == 0, result.stderr

    def reject(constant):
        raise ValueError(f"non-finite {constant}")

    doc = json.loads(result.stdout, parse_constant=reject)
    assert sum(b["probability"] for b in doc["branches"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ("efficiency", "--protocol", "p1", "--n", "0.5", "--m", "inf", "--analytic-only"),
        ("efficiency", "--protocol", "p2", "--n1", "nan", "--n2", "0.5", "--m", "0.5",
         "--analytic-only"),
        ("run", "--protocol", "nparty-bell", "--n-list", "0.5,-inf", "--m", "0.5"),
    ],
    ids=("m-inf", "n1-nan", "n-list-inf"),
)
def test_non_finite_weights_exit_2_without_output(args):
    result = invoke(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "finite" in result.stderr


@pytest.mark.parametrize(
    "args, flag",
    [
        (("run", "--protocol", "p1", "--n", "0.5", "--m", "0.5", "--seed", "-3"), "--seed"),
        (("run", "--protocol", "p1", "--n", "0.5", "--m", "0.5", "--input", "haar:-3"),
         "--input"),
        (("run", "--protocol", "p1", "--n", "0.5", "--m", "0.5", "--input", "haar:x"),
         "--input"),
        (("efficiency", "--protocol", "p1", "--n", "0.5", "--m", "0.5", "--seed=-1"), "--seed"),
        (("sweep", "--protocol", "p1", "--param", "n", "--from", "0", "--to", "1",
          "--steps", "2", "--m", "0.5", "--seed", "-2"), "--seed"),
    ],
    ids=("run-seed", "input-seed", "input-seed-not-a-number", "efficiency-seed", "sweep-seed"),
)
def test_negative_seed_exits_2_naming_the_flag(args, flag):
    result = invoke(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert flag in result.stderr and "non-negative integer" in result.stderr


@pytest.mark.parametrize(
    "args, strategy",
    [
        (("--protocol", "p2", "--n1", "1e-200", "--n2", "1e-200"), "ghz-plus"),
        (("--protocol", "p2", "--n1", "1e200", "--n2", "1e200"), "ghz-minus"),
        (("--protocol", "p1", "--n", "5e-324"), "phi-plus"),
        (("--protocol", "nparty-bell", "--n-list", "1e200j,1e200"), "ghz-minus"),
    ],
    ids=("product-underflow", "product-overflow", "inverse-overflow", "complex-overflow"),
)
def test_strategy_beyond_double_range_exits_2_naming_it(args, strategy):
    # no weight is 0, so the rule is not degenerate; its m is no double
    result = invoke("run", *args, "--m", f"strategy:{strategy}", "--input", "1,0,0,0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"strategy '{strategy}'" in result.stderr and "(inf" not in result.stderr


def test_product_rule_survives_a_partial_underflow():
    # 1e-200 * 1e-200 underflows on the way, but the product 1e-100 does not
    # (exit 3 before: the underflow read as a vanishing weight)
    result = invoke("run", "--protocol", "nparty-bell", "--n-list", "1e-200,1e-200,1e300",
                    "--m", "strategy:ghz-plus", "--input", "0.6,0,0.8,0")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["params"]["m"] == pytest.approx(1e100, rel=1e-15)


def test_render_json_refuses_non_finite_floats():
    import numpy as np

    from qsts.cli import render_json

    assert render_json({"x": 0.5}) == '{\n  "x": 0.5\n}'
    # numpy scalars: np.float64 is a float, numpy integers are written as integers
    assert render_json([np.int64(3), np.float64(0.1)]) == "[\n  3,\n  0.1\n]"
    for bad in (float("nan"), float("inf"), float("-inf"), np.float64("nan")):
        with pytest.raises(ValueError):
            render_json({"analytic": bad})


# ── verify-tables ────────────────────────────────────────────────────────

def test_verify_tables_passes_by_default():
    result = invoke("verify-tables")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert sum("PASS" in line for line in lines) == 24
    assert "24/24 rows" in lines[-1]


def test_verify_tables_corruption_detected():
    result = invoke("verify-tables", "--corrupt", "HMinus,XPlus")
    assert result.returncode == 4
    assert "FAIL table2 HMinus/XPlus" in result.stdout


def test_verify_tables_absurd_tolerance_fails():
    result = invoke("verify-tables", "--tolerance", "1e-30")
    assert result.returncode == 4


@pytest.mark.parametrize("args", [("--tolerance", "inf"), ("--tolerance", "nan"),
                                  ("--tolerance", "-1"), ("--tolerance", "1"),
                                  ("--corrupt", "Foo,Bar"), ("--corrupt", "PhiPlus,XZero"),
                                  ("--corrupt", "PhiPlus,XPlus,XMinus")])
def test_verify_tables_rejects_a_meaningless_check(args):
    # a tolerance outside [0, 1) or a corrupted row in neither table would
    # make every row pass or fail whatever the tables hold
    result = invoke("verify-tables", *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error:" in result.stderr


# ── efficiency ───────────────────────────────────────────────────────────

def test_efficiency_analytic_only():
    result = invoke("efficiency", "--protocol", "p1", "--n", "0.5", "--m", "0.5",
                    "--analytic-only")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc == {"analytic": pytest.approx(0.88, abs=1e-12)}


def test_efficiency_exact_at_maximal_weights():
    result = invoke("efficiency", "--protocol", "p1", "--n", "1", "--m", "1",
                    "--samples", "100", "--seed", "5")
    doc = json.loads(result.stdout)
    assert doc["estimate"] == pytest.approx(1.0, abs=1e-12)
    assert doc["std_error"] == pytest.approx(0.0, abs=1e-13)
    assert doc["samples"] == 100 and doc["seed"] == 5


def test_efficiency_statistical_contract_p2():
    result = invoke("efficiency", "--protocol", "p2", "--n1", "0.5", "--n2", "0.5",
                    "--m", "0.25", "--samples", "4000", "--seed", "11")
    doc = json.loads(result.stdout)
    assert abs(doc["estimate"] - doc["analytic"]) <= 4 * doc["std_error"]


def test_efficiency_complex_weight_omits_analytic():
    result = invoke("efficiency", "--protocol", "p1", "--n", "0.5+0.2j", "--m", "0.5",
                    "--samples", "50", "--seed", "2")
    doc = json.loads(result.stdout)
    assert "analytic" not in doc


@pytest.mark.parametrize("weight", ["1e155", "1e300", "-1e308", "1e-300"])
def test_efficiency_analytic_only_at_extreme_weights(weight):
    # both "--n=-1e308" and "--n -1e308" take "-1e308" as the value
    for args in (("--protocol", "p1", f"--n={weight}", f"--m={weight}"),
                 ("--protocol", "p1", "--n", weight, "--m", weight),
                 ("--protocol", "p2", f"--n1={weight}", "--n2", "0.5", f"--m={weight}"),
                 ("--protocol", "p2", "--n1", weight, "--n2", "0.5", "--m", weight)):
        result = invoke("efficiency", *args, "--analytic-only")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"analytic": pytest.approx(2 / 3, abs=1e-15)}


def test_negative_complex_and_list_values_in_space_form():
    for spaced, joined in (
        (("efficiency", "--protocol", "p1", "--n", "-0.5+0.3j", "--m", "-5e-1",
          "--samples", "40"),
         ("efficiency", "--protocol", "p1", "--n=-0.5+0.3j", "--m=-5e-1", "--samples", "40")),
        (("run", "--protocol", "nparty-bell", "--n-list", "-0.5,0.3", "--m", "0.2"),
         ("run", "--protocol", "nparty-bell", "--n-list=-0.5,0.3", "--m", "0.2")),
    ):
        result, reference = invoke(*spaced), invoke(*joined)
        assert result.returncode == reference.returncode == 0, result.stderr
        assert result.stdout == reference.stdout


def test_efficiency_refuses_threads_and_ignores_the_environment():
    args = ("efficiency", "--protocol", "p1", "--n", "0.4", "--m", "0.8",
            "--samples", "60", "--seed", "4")
    plain = invoke(*args)
    threaded = invoke(*args, "--threads", "3")
    # QSTS_THREADS is not read, so even an unparsable value changes nothing
    env = invoke(*args, env={**os.environ, "QSTS_THREADS": "many"})
    assert plain.returncode == env.returncode == 0
    assert plain.stdout == env.stdout
    assert threaded.returncode == 2 and threaded.stdout == ""
    assert "--threads" in threaded.stderr


# ── sweep ────────────────────────────────────────────────────────────────

def test_sweep_analytic_column_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "--protocol", "p1", "--param", "n", "--from", "0.1",
                    "--to", "1.0", "--steps", "10", "--m", "n",
                    "--samples", "10", "--seed", "1", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,value,analytic,estimate,std_error"
    assert len(lines) == 11
    analytic = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b > a for a, b in zip(analytic, analytic[1:]))


def test_sweep_single_step():
    result = invoke("sweep", "--protocol", "p1", "--param", "m", "--from", "0.4",
                    "--to", "0.9", "--steps", "1", "--n", "0.5", "--samples", "5")
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("m,0.4")


def test_paired_sweep_orders_protocols(tmp_path):
    common = ["--param", "m", "--from", "0.2", "--to", "0.9", "--steps", "5",
              "--samples", "5", "--seed", "3"]
    first = tmp_path / "c1.csv"
    second = tmp_path / "c2.csv"
    invoke("sweep", "--protocol", "p1", "--n", "0.6", "--out", str(first), *common)
    invoke("sweep", "--protocol", "p2", "--n1", "0.6", "--n2", "0.75",
           "--out", str(second), *common)
    c1 = [float(line.split(",")[2]) for line in first.read_text().splitlines()[1:]]
    c2 = [float(line.split(",")[2]) for line in second.read_text().splitlines()[1:]]
    assert all(a >= b for a, b in zip(c1, c2))


def test_sweep_unwritable_path():
    result = invoke("sweep", "--protocol", "p1", "--param", "n", "--from", "0.1",
                    "--to", "0.5", "--steps", "2", "--m", "1", "--samples", "5",
                    "--out", "/nonexistent-dir/sweep.csv")
    assert result.returncode != 0


@pytest.mark.parametrize(
    "bounds",
    [("--from", "-1e308", "--to", "1e308", "--steps", "3"),
     ("--from", "nan", "--to", "1", "--steps", "3"),
     ("--from", "0.5", "--to", "inf", "--steps", "1"),
     ("--from", "-inf", "--to", "1", "--steps", "3")],
    ids=("span-overflows", "from-nan", "single-step-to-inf", "from-minus-inf"),
)
def test_sweep_refuses_non_finite_bounds_naming_them(bounds):
    result = invoke("sweep", "--protocol", "p1", "--param", "n", *bounds,
                    "--m", "0.5", "--samples", "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--from" in result.stderr and "--to" in result.stderr


@pytest.mark.parametrize("argv", [
    ("efficiency", "--protocol", "p1", "--n", "0.5", "--m", "0.5",
     "--samples", "99999999999999999999999"),
    ("sweep", "--protocol", "p1", "--param", "n", "--from", "0.5", "--to", "0.5",
     "--steps", "1", "--m", "0.5", "--samples", "99999999999999999999"),
], ids=("efficiency", "sweep"))
def test_sample_count_beyond_a_c_ssize_t_exits_2_naming_it(capsys, argv):
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: samples must be at most {sys.maxsize}, got ")


def test_sweep_rejects_unknown_param():
    result = invoke("sweep", "--protocol", "p1", "--param", "n1", "--from", "0.1",
                    "--to", "0.5", "--steps", "2", "--m", "1")
    assert result.returncode == 2


def test_sweep_writes_each_row_before_the_next_step(monkeypatch, capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    estimate = efficiency.cpro_monte_carlo
    seen = []  # the --out file as each estimate starts, None before it exists

    def stub(*args):
        seen.append(out.read_text() if out.exists() else None)
        return estimate(*args)

    monkeypatch.setattr(efficiency, "cpro_monte_carlo", stub)
    assert cli.main(["sweep", "--protocol", "p1", "--param", "n", "--from", "0.1", "--to", "0.9",
                     "--steps", "4", "--m", "0.5", "--samples", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert len(lines) == 5 and lines[0] == "param,value,analytic,estimate,std_error\n"
    # the file opens with the first row, which brings the header
    assert seen == [None] + ["".join(lines[:k]) for k in range(2, 5)]
    assert capsys.readouterr().out == ""


def test_sweep_refuses_a_degenerate_step_before_estimating_any(monkeypatch, capsys, tmp_path):
    calls = []
    monkeypatch.setattr(efficiency, "cpro_monte_carlo", lambda *args: calls.append(args))
    out = tmp_path / "sweep.csv"
    # the step at n = 0 is undefined for phi-plus; step 0 is not
    argv = ["sweep", "--protocol", "p1", "--param", "n", "--from", "-1", "--to", "1",
            "--steps", "3", "--m", "strategy:phi-plus"]
    assert cli.main(argv) == 3
    assert cli.main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert calls == [] and not out.exists()


# ── seeded Monte-Carlo output ────────────────────────────────────────────

#: sha256 of the stdout of seeded ``efficiency`` and ``sweep`` calls, recorded
#: before the compile had its one entry and before sweep wrote row by row.
MC_PINS = {
    "efficiency-p1": (
        ("efficiency", "--protocol", "p1", "--n", "0.6", "--m", "0.8",
         "--samples", "2000", "--seed", "7"),
        "f07421826f5c72e7f6171e0703023b1dbb3b6fae1562a1d164477acf3837503e"),
    "efficiency-p2-bob": (
        ("efficiency", "--protocol", "p2", "--n1", "0.5+0.3j", "--n2", "0.8-0.1j",
         "--m", "0.7+0.2j", "--receiver", "bob", "--samples", "2000", "--seed", "3"),
        "a080984b6106a58fb50281b1e2cfa8758be3da1821b072e7e89d336aa06743d5"),
    "efficiency-ghz5": (
        ("efficiency", "--protocol", "nparty-ghz", "--parties", "5", "--n", "0.45",
         "--m", "0.9", "--samples", "2000", "--seed", "11"),
        "c35b803008e8913f1f62bf4694ce071d962a3c352adcfc5970685e566ca1980f"),
    "efficiency-bell-party2": (
        ("efficiency", "--protocol", "nparty-bell", "--n-list", "0.5,0.3+0.2j,0.9",
         "--m", "0.7", "--receiver", "2", "--samples", "2000", "--seed", "5"),
        "ac2328d055ee95822987b9d9b6b8aa393f00980811db8604a2a13549ad601e73"),
    "sweep-p1-m": (
        ("sweep", "--protocol", "p1", "--param", "m", "--from", "0.2", "--to", "1.2",
         "--steps", "4", "--n", "0.6", "--samples", "500", "--seed", "2"),
        "670d54dc176f4729369e613fe6d71219e972e76809307ea9564236cafe70afcd"),
    "sweep-p2-z-plus-bob": (
        ("sweep", "--protocol", "p2", "--param", "n1", "--from", "0.3", "--to", "0.9",
         "--steps", "3", "--n2", "0.7", "--m", "strategy:z-plus", "--receiver", "bob",
         "--samples", "500", "--seed", "9"),
        "56f6f4b9795bcea6e946b73bc5f5ef859c1e2c3068c4b3682615bb7918184a14"),
}


@pytest.mark.parametrize("name", MC_PINS)
def test_seeded_estimate_matches_its_pinned_digest(capsys, name):
    argv, digest = MC_PINS[name]
    out = _main_stdout(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ── --receiver on efficiency and sweep ───────────────────────────────────

def _main_stdout(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_efficiency_receiver_bob_matches_the_library_and_the_closed_form(capsys):
    args = ("efficiency", "--protocol", "p2", "--n1", "0.5", "--n2", "0.8",
            "--m", "strategy:z-plus", "--samples", "4000", "--seed", "5")
    doc = json.loads(_main_stdout(capsys, *args, "--receiver", "bob"))
    m = choose_m("z-plus", n1=0.8, n2=0.5)  # Charlie helps, Bob receives
    report = cpro_monte_carlo("p2", {"n1": 0.5, "n2": 0.8, "m": m, "receiver": "bob"}, 4000, 5)
    assert doc == {"analytic": report.analytic, "estimate": report.estimate,
                   "samples": 4000, "std_error": report.std_error, "seed": 5}
    assert report.analytic == cpro2_analytic(0.5, 0.8, m.real)
    assert abs(doc["estimate"] - doc["analytic"]) <= 4 * doc["std_error"]
    assert json.loads(_main_stdout(capsys, *args, "--receiver", "bob", "--analytic-only")) == {
        "analytic": report.analytic}


def test_efficiency_receiver_is_the_library_receiver(capsys):
    # complex weights: p2's rates at Bob and Charlie differ
    p2 = ("efficiency", "--protocol", "p2", "--n1", "0.5+0.3j", "--n2", "0.8",
          "--m", "0.6-0.2j", "--samples", "300", "--seed", "2")
    p2_params = {"n1": 0.5 + 0.3j, "n2": 0.8, "m": 0.6 - 0.2j}
    bell = ("efficiency", "--protocol", "nparty-bell", "--n-list", "0.5,0.3+0.2j,0.9",
            "--m", "0.7", "--samples", "300", "--seed", "2")
    bell_params = {"ns": (0.5, 0.3 + 0.2j, 0.9), "m": 0.7}
    estimates = {}
    for argv, protocol, params, receiver in [
            (p2, "p2", {**p2_params, "receiver": "bob"}, "bob"),
            (p2, "p2", {**p2_params, "receiver": "charlie"}, "charlie"),
            (bell, "nparty-bell", {**bell_params, "receiver_index": 1}, "1"),
            (bell, "nparty-bell", {**bell_params, "receiver_index": 3}, "3")]:
        doc = json.loads(_main_stdout(capsys, *argv, "--receiver", receiver))
        report = cpro_monte_carlo(protocol, params, 300, 2)
        assert doc == {"estimate": report.estimate, "samples": 300,
                       "std_error": report.std_error, "seed": 2}
        compiled = compile_params(protocol, params)[0]
        assert abs(report.estimate - exact_haar_rate(compiled)) <= 4 * report.std_error
        estimates[receiver] = report.estimate
    assert abs(estimates["bob"] - estimates["charlie"]) > 1e-3
    # the default receiver is the last party, as the flag names it
    assert _main_stdout(capsys, *p2) == _main_stdout(capsys, *p2, "--receiver", "charlie")
    assert _main_stdout(capsys, *bell) == _main_stdout(capsys, *bell, "--receiver", "3")


def test_sweep_receiver_bob_matches_the_library_per_step(capsys):
    args = ("sweep", "--protocol", "p2", "--param", "n1", "--from", "0.2", "--to", "0.8",
            "--steps", "3", "--n2", "0.5+0.4j", "--m", "strategy:g-plus",
            "--samples", "50", "--seed", "4")
    lines = _main_stdout(capsys, *args, "--receiver", "bob").splitlines()
    assert lines[0] == "param,value,analytic,estimate,std_error"
    for i, (line, n1) in enumerate(zip(lines[1:], (0.2, 0.5, 0.8))):
        m = choose_m("g-plus", n1=0.5 + 0.4j, n2=n1)
        report = cpro_monte_carlo(
            "p2", {"n1": n1, "n2": 0.5 + 0.4j, "m": m, "receiver": "bob"}, 50, 4 + i)
        param, value, analytic, estimate, std_error = line.split(",")
        assert (param, analytic) == ("n1", "")  # complex n2: no closed form
        assert float(value) == pytest.approx(n1, abs=1e-15)
        assert (float(estimate), float(std_error)) == (report.estimate, report.std_error)
    assert _main_stdout(capsys, *args) != _main_stdout(capsys, *args, "--receiver", "bob")


@pytest.mark.parametrize("argv, message", [
    (("efficiency", "--protocol", "p1", "--n", "0.5", "--m", "0.5", "--receiver", "alice"),
     "receiver must be 'bob' or 'charlie', got 'alice'"),
    (("efficiency", "--protocol", "nparty-ghz", "--parties", "4", "--n", "0.5", "--m", "0.5",
      "--receiver", "bob", "--analytic-only"),
     "--receiver must be a party index for many-party protocols"),
    (("efficiency", "--protocol", "nparty-bell", "--n-list", "0.5,0.5", "--m", "0.5",
      "--receiver", "3"), "receiver_index 3 out of range for 3 parties"),
    (("sweep", "--protocol", "p1", "--param", "n", "--from", "0.1", "--to", "0.5",
      "--steps", "2", "--receiver", "1"), "receiver must be 'bob' or 'charlie', got '1'"),
])
def test_receiver_outside_the_protocol_exits_2_naming_it(capsys, argv, message):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# ── reproducibility ──────────────────────────────────────────────────────

@pytest.mark.parametrize(
    "args",
    [
        ("run", "--protocol", "p1", "--n", "0.5", "--m", "0.7", "--input", "haar:42"),
        ("run", "--protocol", "nparty-bell", "--n-list", "0.5,0.4,0.9", "--m", "0.2",
         "--input", "haar:7", "--format", "csv"),
        ("efficiency", "--protocol", "p1", "--n", "0.5", "--m", "0.5",
         "--samples", "200", "--seed", "9"),
        ("sweep", "--protocol", "p2", "--param", "n1", "--from", "0.2", "--to", "0.8",
         "--steps", "3", "--n2", "0.5", "--m", "0.4", "--samples", "20", "--seed", "1"),
    ],
    ids=("run-haar", "run-nparty-csv", "efficiency", "sweep"),
)
def test_byte_identical_output_for_fixed_seed(args):
    first = invoke(*args)
    second = invoke(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_float_serialisation_round_trips():
    result = invoke("run", "--protocol", "p1", "--n", "0.7", "--m", "0.3",
                    "--input", "haar:1")
    doc = json.loads(result.stdout)
    probs = [b["probability"] for b in doc["branches"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    # floats are written as their shortest round-trip repr: parsing back and
    # re-rendering at 17 significant digits is lossless
    rendered = format(probs[0], ".17g")
    assert float(rendered) == probs[0]


def test_floats_stay_floats():
    # an integral float keeps its ".0" and -0.0 its sign, so JSON reads each back as a float
    result = invoke("efficiency", "--protocol", "p1", "--n", "1", "--m", "1", "--analytic-only")
    assert result.stdout == '{\n  "analytic": 1.0\n}\n'
    doc = json.loads(invoke("run", "--protocol", "p1", "--n", "1", "--m", "1").stdout)
    assert all(isinstance(b[key], float) for b in doc["branches"]
               for key in ("probability", "fidelity"))
    result = invoke("run", "--protocol", "p1", "--n", "1", "--m", "1", "--input", "-0,0,1,0")
    assert '"alpha_re": -0.0,' in result.stdout
    alpha_re = json.loads(result.stdout)["input"]["alpha_re"]
    assert isinstance(alpha_re, float) and math.copysign(1.0, alpha_re) == -1.0


# ── README ───────────────────────────────────────────────────────────────

def _readme_commands():
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qsts ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_command_runs(argv, tmp_path):
    # from an empty directory, so an --out path lands in it
    src = str(Path(qsts.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = invoke(*argv, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stderr
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text().strip()
    else:
        assert result.stdout.strip()


# ── grammar property ─────────────────────────────────────────────────────

def _subparsers():
    """Each subcommand's parser by name, read from ``build_parser()`` itself."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_STRATEGY_TOKENS = tuple(f"strategy:{name}" for name in qsts.STRATEGIES)
#: Tokens that each flag takes, by flag.  A count that the CLI accepts is
#: small (--samples at most 50, --steps at most 5); the huge ones lie beyond
#: what it accepts, so no drawn call asks for a long run.
_VALID = {
    "--protocol": tuple(qsts.rules.PRESETS),
    "--n": ("0.5", "1", "0.3+0.4j", "-0.7", "0", "0.5-0j"),
    "--n1": ("0.5", "0.8", "0.2-0.6j", "1", "0"),
    "--n2": ("0.3", "0.5", "-0.4+0.1j", "1", "0"),
    "--n-list": ("0.5,0.4", "0.5,0.4,0.8", "0.6+0.2j,0.3,0.9,0.7,0.2", "1,1"),
    "--parties": ("3", "4", "5", "10"),
    "--m": ("0.5", "1", "0.6-0.2j", "2", "n", "m", "n1", *_STRATEGY_TOKENS),
    "--seed": ("0", "1", "7", str(10**400)),
    "--input": ("haar", "haar:3", "0.6,0,0.8,0", "0.6,0.0,0,0.8"),
    "--receiver": ("bob", "charlie", "1", "2", "3"),
    "--format": ("json", "csv"),
    "--samples": ("1", "2", "20", "50"),
    "--tolerance": ("1e-10", "0.5", "0"),
    "--corrupt": ("PhiPlus,XPlus", "GHZMinus,XMinus"),
    "--param": ("n", "m", "n1", "n2"),
    "--from": ("0", "0.1", "0.5", "-0.5"),
    "--to": ("0.5", "1", "2"),
    "--steps": ("1", "2", "5"),
}
#: Extreme, non-finite and malformed tokens, and integers far beyond any cap.
_BAD = ("1e308", "-1e308", "5e-324", "1e300+1e300j", "nan", "inf", "-inf", "1+infj",
        "1e999", "abc", "", "0.5,", "1,,2", "strategy:", "strategy:none", "haar:-1",
        "haar:x", "1,0,1,0", "1e200,0,0,0", "-1", "-0.0", "1.5", "0x10",
        str(-10**30), str(10**400), "p7", "x")


#: Every flag's valid tokens, as values of the other flags.  An integer above
#: 5 could be a long --steps run, so none is misplaced.
_MISPLACED = tuple(sorted({t for values in _VALID.values() for t in values
                           if not (t.isdigit() and int(t) > 5)}))


@st.composite
def _argv(draw, out_dir):
    """A command line: a subcommand with the flags that its parser and its
    protocol's parameters ask for, each with a valid token, then up to three
    faults: a token that is extreme, non-finite, malformed or misplaced, a
    flag or its value left out, a flag the protocol does not read, a stray
    token."""
    parsers = _subparsers()
    command = draw(st.sampled_from(sorted(parsers)))
    actions = {a.option_strings[0]: a for a in parsers[command]._actions
               if a.option_strings and "-h" not in a.option_strings}
    valid = dict(_VALID, **{"--out": (str(out_dir / "out.txt"),
                                      str(out_dir / "missing" / "out.txt"), str(out_dir))})
    wanted = {flag for flag, action in actions.items() if action.required}
    channel_flags = set(cli._FLAGS.values()) - {"--m"}  # each given when the protocol reads it
    if "--protocol" in actions:
        protocol = draw(st.sampled_from(actions["--protocol"].choices))
        names = qsts.rules.PRESETS[protocol].params
        if command == "sweep":
            swept = draw(st.sampled_from(qsts.rules.WEIGHTS[protocol]))
            valid["--param"] = (swept,)
            names = [name for name in names if name != swept]
        wanted |= {cli._FLAGS[name] for name in names if name != "m"} | {"--samples"}
        family = "p1" if protocol in ("p1", "nparty-ghz") else "p2"
        tracked = (swept,) if command == "sweep" and swept != "m" else ()
        valid["--m"] = ("0.5", "1", "0.6-0.2j", "2", *tracked, *(
            f"strategy:{name}" for name, rule in qsts.STRATEGIES.items()
            if rule.protocol == family and (protocol != "nparty-bell" or name in PRODUCT_RULES)))
        valid["--protocol"] = (protocol,)
        valid["--receiver"] = ("1", "2") if protocol.startswith("nparty") else ("bob", "charlie")
    pairs = [[flag, draw(st.sampled_from(valid[flag]))] if action.nargs != 0 else [flag]
             for flag, action in actions.items()
             if flag in wanted or flag not in channel_flags and draw(st.integers(0, 2)) == 0]
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        fault = draw(st.sampled_from(("token", "token", "drop-value", "drop-flag", "extra",
                                      "stray")))
        index = draw(st.integers(0, max(len(pairs) - 1, 0)))
        target = pairs[index] if pairs else ["--out"]
        if fault == "token" and len(target) == 2 and target[0] != "--out":
            target[1] = draw(st.sampled_from(_BAD + _MISPLACED))
        elif fault == "drop-value" and len(target) == 2 and target[0] != "--out":
            target.pop()
        elif fault == "drop-flag" and pairs:
            pairs.pop(index)
        elif fault == "extra":
            flag = draw(st.sampled_from(sorted(set(actions) - {"--out"})))
            pairs.append([flag] if actions[flag].nargs == 0
                         else [flag, draw(st.sampled_from(valid[flag]))])
        elif fault == "stray":
            pairs.insert(index, [draw(st.sampled_from(_BAD + _MISPLACED + ("--bogus",)))])
    return [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]


def _assert_strict_output(command, text):
    if command == "verify-tables":
        *rows, summary = text.splitlines()
        assert rows and all(row.split()[0] in ("PASS", "FAIL") for row in rows)
        assert "rows within tolerance" in summary
    elif text.startswith("{"):
        def refuse(constant):
            raise AssertionError(f"non-finite JSON constant {constant}")
        json.loads(text, parse_constant=refuse)
    else:
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert rows and all(len(row) == len(header) for row in rows)
        for cell in (cell for row in rows for cell in row):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), cell


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_line_exits_with_a_documented_code(out_dir, data):
    argv = data.draw(_argv(out_dir))
    out_file = out_dir / "out.txt"
    out_file.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out_dir)  # a relative path that slipped through lands here
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    finally:
        os.chdir(cwd)
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, stderr)
    if code == 0:
        _assert_strict_output(argv[0], out_file.read_text() if "--out" in argv else stdout)
    elif code in (2, 3):
        assert stdout == "" and stderr.strip(), (argv, stdout, stderr)
    else:
        assert argv[0] == "verify-tables", (argv, stderr)
