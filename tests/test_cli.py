"""CLI subcommands: output schema, determinism, exit codes."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qsts
from qsts import strategy_targets

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
    from qsts.cli import render_json

    assert render_json({"x": 0.5}) == '{\n  "x": 0.5\n}'
    for bad in (float("nan"), float("inf"), float("-inf")):
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
                                  ("--corrupt", "Foo,Bar"), ("--corrupt", "PhiPlus,XPlus,XMinus")])
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


def test_sweep_rejects_unknown_param():
    result = invoke("sweep", "--protocol", "p1", "--param", "n1", "--from", "0.1",
                    "--to", "0.5", "--steps", "2", "--m", "1")
    assert result.returncode == 2


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
    # 17 significant digits: parsing back and re-rendering is lossless
    rendered = format(probs[0], ".17g")
    assert float(rendered) == probs[0]


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
