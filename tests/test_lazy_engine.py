"""Numpy loads only for commands that compute arrays; every public name resolves.

``qsts`` and ``qsts.cli`` import the numpy-free ``qsts.rules`` when they load
and the array engine on first use.
"""

import importlib
import resource
import subprocess
import sys

import pytest

import qsts
from qsts import cli, rules

# Runs ``python -m qsts`` with the given arguments and reports on stderr, as
# its last line, whether numpy was imported by the time the interpreter exits.
_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr))\n"
    "runpy.run_module('qsts', run_name='__main__', alter_sys=True)\n"
)

P1 = ("--protocol", "p1")
P2 = ("--protocol", "p2")


def _probe(argv, exit_code, **run_options):
    """The command's stdout and stderr lines, and whether it loaded numpy."""
    result = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                            capture_output=True, text=True, **run_options)
    assert result.returncode == exit_code, result.stderr
    *stderr, last = result.stderr.strip().splitlines()
    assert last in ("numpy loaded: True", "numpy loaded: False"), result.stderr
    return result.stdout, stderr, last.endswith("True")


def _numpy_loaded(argv, exit_code):
    return _probe(argv, exit_code)[2]


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(("efficiency", *P1, "--n", "0.5", "--m", "0.7", "--analytic-only"), 0,
                 id="efficiency-analytic-p1"),
    pytest.param(("efficiency", *P2, "--n1", "0.5", "--n2", "0.3", "--m", "0.7",
                  "--analytic-only"), 0, id="efficiency-analytic-p2"),
    pytest.param(("run", "--protocol", "p7", "--n", "1", "--m", "1"), 2, id="bad-protocol"),
    pytest.param(("run", *P1, "--m", "0.5"), 2, id="missing-weight"),
    pytest.param(("run", *P1, "--n", "0.5", "--m", "0.5", "--input", "1,0,1,0"), 2,
                 id="unnormalised-input"),
    pytest.param(("run", *P1, "--n", "0", "--m", "strategy:phi-plus", "--input", "haar:5"), 3,
                 id="degenerate-strategy"),
    pytest.param(("efficiency", *P1, "--n", "0.5", "--m", "inf", "--analytic-only"), 2,
                 id="nonfinite-inf"),
    pytest.param(("efficiency", *P2, "--n1", "nan", "--n2", "0.5", "--m", "0.5",
                  "--analytic-only"), 2, id="nonfinite-nan"),
    pytest.param(("--help",), 0, id="help"),
])
def test_commands_without_arrays_never_import_numpy(argv, exit_code):
    assert not _numpy_loaded(argv, exit_code)


@pytest.mark.parametrize("argv, exit_code, message", [
    pytest.param(("run", *P1, "--n", "0.5", "--n2", "0.9", "--parties", "7", "--n-list", "1,2",
                  "--m", "1", "--input", "1,0,0,0"), 2, "p1 takes no --n2, --parties, --n-list",
                 id="run-p1"),
    pytest.param(("run", "--protocol", "nparty-bell", "--n-list", "0.5,0.3", "--n", "0.5",
                  "--m", "1"), 2, "nparty-bell takes no --n", id="run-bell"),
    pytest.param(("efficiency", *P2, "--n", "0.5", "--n1", "0.5", "--n2", "0.3", "--m", "0.7"),
                 2, "p2 takes no --n", id="efficiency-mc"),
    pytest.param(("efficiency", "--protocol", "nparty-ghz", "--parties", "4", "--n", "0.5",
                  "--n1", "0.5", "--m", "0.7", "--analytic-only"), 2,
                 "nparty-ghz takes no --n1", id="efficiency-analytic"),
    pytest.param(("sweep", *P1, "--param", "n", "--n", "0.3", "--from", "0", "--to", "1",
                  "--steps", "2"), 2, "p1 sweeping n takes no --n", id="sweep-swept-flag"),
    pytest.param(("sweep", *P2, "--param", "m", "--n1", "0.5", "--n2", "0.3", "--n", "0.3",
                  "--from", "0", "--to", "1", "--steps", "2"), 2, "p2 sweeping m takes no --n",
                 id="sweep-other-protocol-flag"),
    pytest.param(("sweep", *P1, "--param", "m", "--from", "0", "--to", "1", "--steps", "2",
                  "--n", "0.5", "--m", "strategy:phi-plus"), 2, "p1 sweeping m takes no --m",
                 id="sweep-swept-m"),
    # every earlier check keeps its message and exit code
    pytest.param(("run", *P1, "--n2", "0.5", "--m", "1"), 2, "p1 needs --n", id="missing-first"),
    pytest.param(("run", *P1, "--n", "0", "--n2", "0.5", "--m", "strategy:phi-plus"), 3,
                 "strategy 'phi-plus' is undefined for a vanishing channel weight",
                 id="degenerate-first"),
])
def test_unread_channel_flags_are_refused_without_numpy(argv, exit_code, message):
    stdout, stderr, numpy_loaded = _probe(argv, exit_code)
    assert (stdout, stderr) == ("", [f"error: {message}"])
    assert not numpy_loaded


def _cap_address_space():
    # runs in the child only: a grid of 10**20 floats cannot be built under 1 GiB
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("bounds, exit_code, message", [
    pytest.param(("--from", "0", "--to", "1", "--m", "strategy:phi-plus"), 3,
                 "strategy 'phi-plus' is undefined for a vanishing channel weight",
                 id="first-step-degenerate"),
    pytest.param(("--from", "0", "--to", "inf", "--m", "0.5"), 2,
                 "--from, --to and the span between them must be finite", id="to-inf"),
])
def test_sweep_checks_a_huge_grid_without_building_it(bounds, exit_code, message):
    argv = ("sweep", *P1, "--param", "n", "--steps", str(10**20), *bounds)
    stdout, stderr, numpy_loaded = _probe(argv, exit_code, timeout=60,
                                          preexec_fn=_cap_address_space)
    assert (stdout, stderr) == ("", [f"error: {message}"])
    assert not numpy_loaded


@pytest.mark.parametrize("steps", [
    pytest.param(10**400, id="beyond-a-double"),
    pytest.param(int(sys.float_info.max) + 2, id="first-count-beyond"),
])
def test_sweep_refuses_steps_beyond_a_double_without_numpy(steps):
    # the span is divided by steps - 1 as a double.  A count that fits runs
    # without end, one row per step, so a missed refusal times out.
    argv = ("sweep", *P1, "--param", "n", "--from", "0", "--to", "1", "--m", "0.5",
            "--steps", str(steps))
    stdout, stderr, numpy_loaded = _probe(argv, 2, timeout=60, preexec_fn=_cap_address_space)
    assert (stdout, stderr) == ("", ["error: --steps must lie within the range of a double"])
    assert not numpy_loaded


@pytest.mark.parametrize("steps", [3, 10**8])
def test_sweep_refuses_a_bad_receiver_before_any_estimate(steps):
    # the first pass checks every step's parameters as the compile does; a
    # refusal left to the estimates would come after 10**8 steps of that pass
    argv = ("sweep", *P1, "--n", "0.5", "--receiver", "x", "--param", "m", "--from", "0",
            "--to", "1", "--steps", str(steps), "--samples", "2")
    stdout, stderr, numpy_loaded = _probe(argv, 2, timeout=20)
    assert (stdout, stderr) == ("", ["error: receiver must be 'bob' or 'charlie', got 'x'"])
    assert not numpy_loaded


def test_analytic_only_refuses_a_party_count_beyond_the_caps_without_numpy():
    # the closed-form path checks parameters as the compile does
    argv = ("efficiency", "--protocol", "nparty-ghz", "--parties", "2", "--n", "0.5",
            "--m", "0.5", "--analytic-only")
    stdout, stderr, numpy_loaded = _probe(argv, 2)
    assert (stdout, stderr) == ("", ["error: the ghz family takes 3..10 parties, got 2"])
    assert not numpy_loaded


def test_analytic_only_checks_a_receiver_index_without_numpy():
    # the integer checks of parties and receiver_index run before the closed-form lookup
    argv = ("efficiency", "--protocol", "nparty-ghz", "--parties", "4", "--n", "0.5",
            "--m", "0.5", "--receiver", "2", "--analytic-only")
    stdout, stderr, numpy_loaded = _probe(argv, 2)
    assert (stdout, stderr) == ("", ["error: no closed form for this protocol/parameter "
                                     "combination"])
    assert not numpy_loaded
    stdout, stderr, numpy_loaded = _probe(argv[:-2] + ("5", "--analytic-only"), 2)
    assert (stdout, stderr) == ("", ["error: receiver_index 5 out of range for 4 parties"])
    assert not numpy_loaded


def test_run_imports_numpy():
    assert _numpy_loaded(("run", *P1, "--n", "0.5", "--m", "0.5", "--input", "haar:1"), 0)


def test_bare_import_does_not_import_numpy():
    code = "import sys, qsts; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_every_public_name_resolves_and_star_import_works():
    for name in qsts.__all__:
        assert getattr(qsts, name) is not None, name
    assert set(qsts.__all__) <= set(dir(qsts))
    namespace = {}
    exec("from qsts import *", namespace)
    assert set(qsts.__all__) <= namespace.keys()
    with pytest.raises(AttributeError):
        qsts.no_such_name  # noqa: B018


def test_rules_are_one_object_under_every_module_name():
    modules = {name: importlib.import_module(f"qsts.{name}")
               for name in ("states", "bases", "protocols", "efficiency", "cli")}
    shared = {
        "states": ("NORM_ATOL", "InputQubit"),
        "protocols": ("DegenerateChannelError", "MStrategy", "STRATEGIES", "PRODUCT_RULES",
                      "choose_m", "p2_channels", "PARTY_CAPS", "check_params"),
        "efficiency": ("WEIGHTS", "analytic_rate", "concurrence", "cpro1_analytic",
                       "cpro2_analytic", "InputQubit"),
        "cli": ("PRESETS", "WEIGHTS", "analytic_rate"),
    }
    for module, names in shared.items():
        for name in names:
            assert getattr(modules[module], name) is getattr(rules, name), (module, name)
    assert modules["bases"]._weight_norm is rules._weight_norm
    assert modules["bases"]._integer is modules["efficiency"]._integer is rules._integer
    for name in ("InputQubit", "choose_m", "DegenerateChannelError", "analytic_rate"):
        assert getattr(qsts, name) is getattr(rules, name)


@pytest.mark.parametrize("style", ["spans", "before-binding"])
def test_cli_calls_entry_points_patched_before_first_use(monkeypatch, capsys, style):
    # perfbench/spans.py patches each entry point on the module that defines it
    calls = []

    def recording(module, name):
        original = getattr(module, name)

        def stub(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, stub)

    command_line = cli
    if style == "before-binding":  # patched before qsts.cli is loaded at all
        monkeypatch.delitem(sys.modules, "qsts.cli")
        monkeypatch.delattr(qsts, "cli", raising=False)
    recording(importlib.import_module("qsts.protocols"), "run_protocol1")
    recording(importlib.import_module("qsts.efficiency"), "cpro_monte_carlo")
    if style == "before-binding":
        command_line = importlib.import_module("qsts.cli")
        assert command_line is not cli
    assert command_line.main(["run", *P1, "--n", "0.5", "--m", "0.5", "--input", "haar:1"]) == 0
    assert command_line.main(["efficiency", *P1, "--n", "0.5", "--m", "0.5",
                              "--samples", "20", "--seed", "1"]) == 0
    capsys.readouterr()
    assert calls == ["run_protocol1", "cpro_monte_carlo"]


# Runs ``python -m qsts`` and reports on stderr, as its last line, whether
# ``qsts.efficiency`` was imported by the time the interpreter exits.
_EFFICIENCY_PROBE = _PROBE.replace("'numpy loaded:', 'numpy'",
                                   "'efficiency loaded:', 'qsts.efficiency'")


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(("verify-tables",), 0, id="verify-tables"),
    pytest.param(("verify-tables", "--corrupt", "PhiPlus,XPlus"), 4, id="verify-corrupt"),
    pytest.param(("run", *P1, "--n", "0.5", "--m", "0.5", "--input", "0.6,0,0.8,0"), 0,
                 id="run-p1-fixed-input"),
    pytest.param(("run", *P2, "--n1", "0.5", "--n2", "0.3", "--m", "0.7",
                  "--input", "0.6,0,0.8,0", "--format", "csv"), 0, id="run-p2-fixed-input"),
])
def test_commands_without_sampling_do_not_load_the_estimator(argv, exit_code):
    result = subprocess.run([sys.executable, "-c", _EFFICIENCY_PROBE, *argv],
                            capture_output=True, text=True)
    assert result.returncode == exit_code, result.stderr
    assert result.stderr.strip().splitlines()[-1] == "efficiency loaded: False"


def test_cli_resolves_the_names_the_tracer_patches_from_their_modules():
    protocols = importlib.import_module("qsts.protocols")
    efficiency = importlib.import_module("qsts.efficiency")
    for name in cli._TRACED:
        module = efficiency if name in ("cpro_monte_carlo", "haar_sample") else protocols
        assert getattr(cli, name) is getattr(module, name), name
    for name in ("compile_params", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(cli, name)
