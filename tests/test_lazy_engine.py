"""Numpy loads only for commands that compute arrays; every public name resolves.

``qsts`` and ``qsts.cli`` import the numpy-free ``qsts.rules`` when they load
and the array engine on first use.  perfbench/spans.py patches the engine's
entry points on ``qsts.cli``, so the lazy binding must leave a patched name
in place.
"""

import importlib
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


def _probe(argv, exit_code):
    """The command's stdout and stderr lines, and whether it loaded numpy."""
    result = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                            capture_output=True, text=True)
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
    # unbind every engine entry point, as in a fresh interpreter
    for name in cli._ENGINE:
        monkeypatch.delitem(vars(cli), name, raising=False)
    calls = []

    def recording(name):
        original = getattr(importlib.import_module(f"qsts.{cli._ENGINE[name]}"), name)

        def stub(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return stub

    stubs = {name: recording(name) for name in ("run_protocol1", "cpro_monte_carlo")}
    for name, stub in stubs.items():
        if style == "spans":  # perfbench/spans.py reads the name, then replaces it
            monkeypatch.setattr(cli, name, stub)
        else:  # bound before the module binds anything itself
            monkeypatch.setitem(vars(cli), name, stub)

    assert cli.main(["run", *P1, "--n", "0.5", "--m", "0.5", "--input", "haar:1"]) == 0
    assert cli.main(["efficiency", *P1, "--n", "0.5", "--m", "0.5",
                     "--samples", "20", "--seed", "1"]) == 0
    capsys.readouterr()
    assert calls == ["run_protocol1", "cpro_monte_carlo"]
    for name, stub in stubs.items():
        assert vars(cli)[name] is stub, name
    assert cli._ENGINE.keys() <= vars(cli).keys()
