"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
results including runtimes.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import assert_run_matches_oracle, generic_haar
from oracle import (
    oracle_nparty_bell,
    oracle_nparty_ghz,
    oracle_protocol1,
    oracle_protocol2,
)
from qsts import (
    STRATEGIES,
    InputQubit,
    bob_bit_withheld_state,
    choose_m,
    compare_protocols,
    concurrence,
    cpro1_analytic,
    cpro2_analytic,
    cpro_monte_carlo,
    haar_sample,
    nparty_bell_targets,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
    strategy_targets,
    verify_table1,
    verify_table2,
)

WEIGHTS = (0.3, 0.7, 1.0)


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def timing(elapsed: float, bound: float) -> str:
    """Assert a criterion's wall-clock bound; say its headroom, e.g. "in 10.00 s of 60 s"."""
    assert elapsed < bound, f"took {elapsed:.2f} s of {bound:g} s"
    return f"in {elapsed:.2f} s of {bound:g} s"


def test_criterion_01_table1_reproduction():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    inputs = [haar_sample(rng) for _ in range(5)]
    rows = 0
    for n, m in itertools.product(WEIGHTS, WEIGHTS):
        for source in inputs:
            checks = verify_table1(n, m, source, tolerance=1e-10)
            assert len(checks) == 8
            assert all(c.ok for c in checks), (n, m)
            rows += len(checks)
    elapsed = time.perf_counter() - started
    report(1, f"{rows} table-1 rows at 1e-10 {timing(elapsed, 1.0)}")


def test_criterion_02_table2_reproduction():
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    inputs = [haar_sample(rng) for _ in range(5)]
    rows = 0
    for n1, n2, m in itertools.product(WEIGHTS, WEIGHTS, WEIGHTS):
        for source in inputs:
            checks = verify_table2(n1, n2, m, source, tolerance=1e-10)
            assert len(checks) == 16
            assert all(c.ok for c in checks), (n1, n2, m)
            rows += len(checks)
    elapsed = time.perf_counter() - started
    report(2, f"{rows} table-2 rows at 1e-10 {timing(elapsed, 5.0)}")


def test_criterion_03_unity_fidelity_strategies():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    inputs = [generic_haar(rng) for _ in range(100)]
    single_channels = rng.uniform(0.05, 1.0, size=20)
    double_channels = rng.uniform(0.05, 1.0, size=(20, 2))
    for name, strategy in STRATEGIES.items():
        targets = strategy_targets(name, real=True)
        if strategy.protocol == "p1":
            configs = [((n,), choose_m(name, n=n)) for n in single_channels]
        else:
            configs = [((n1, n2), choose_m(name, n1=n1, n2=n2))
                       for n1, n2 in double_channels]
        for channel, m in configs:
            for source in inputs:
                if strategy.protocol == "p1":
                    run = run_protocol1(source, channel[0], m)
                else:
                    run = run_protocol2(source, channel[0], channel[1], m)
                for branch in run.branches:
                    if branch.alice_label in targets:
                        assert branch.fidelity >= 1 - 1e-9, (name, channel)
                    else:
                        assert branch.fidelity < 1 - 1e-6, (name, channel)
    elapsed = time.perf_counter() - started
    report(3, f"8 strategies x 20 channels x 100 inputs {timing(elapsed, 10.0)}")


def test_criterion_04_deterministic_limits():
    rng = np.random.default_rng(14)
    for source in (InputQubit(0.6, 0.8), haar_sample(rng), haar_sample(rng)):
        for branch in run_protocol1(source, 1, 1).branches:
            assert abs(branch.fidelity - 1.0) <= 1e-12
        for branch in run_protocol2(source, 1, 1, 1).branches:
            assert abs(branch.fidelity - 1.0) <= 1e-12
    assert abs(cpro1_analytic(1, 1) - 1.0) <= 1e-12
    assert abs(cpro2_analytic(1, 1, 1) - 1.0) <= 1e-12
    mc1 = cpro_monte_carlo("p1", {"n": 1, "m": 1}, 50, 4)
    mc2 = cpro_monte_carlo("p2", {"n1": 1, "n2": 1, "m": 1}, 50, 4)
    assert abs(mc1.estimate - 1.0) <= 1e-12
    assert abs(mc2.estimate - 1.0) <= 1e-12
    report(4, "maximal weights give fidelity 1 on every branch and rate 1")


def test_criterion_05_analytic_efficiency():
    assert abs(cpro1_analytic(0.5, 0.5) - 0.88) <= 1e-12
    assert abs(cpro2_analytic(1, 1, 0.5) - 14 / 15) <= 1e-12
    rng = np.random.default_rng(15)
    for _ in range(50):
        n, m = rng.uniform(0.0, 2.0, size=2)
        assert cpro1_analytic(n, m) == cpro1_analytic(m, n)
        x = rng.uniform(0.0, 2.0, size=3)
        assert len({cpro2_analytic(*p) for p in itertools.permutations(x)}) == 1
    grid = np.linspace(0.05, 1.0, 20)
    for curve in (
        [cpro1_analytic(v, 0.6) for v in grid],
        [cpro1_analytic(0.6, v) for v in grid],
        [cpro2_analytic(v, 0.7, 0.4) for v in grid],
        [cpro2_analytic(0.7, v, 0.4) for v in grid],
        [cpro2_analytic(0.7, 0.4, v) for v in grid],
    ):
        assert all(b >= a for a, b in zip(curve, curve[1:]))
    report(5, "closed forms, exact permutation invariance, monotone on 20-grid")


def test_criterion_06_mc_analytic_agreement():
    started = time.perf_counter()
    grid = (0.1, 0.3, 0.5, 0.8, 1.0)
    agreeing = 0
    excluded = []
    for i, (n, m) in enumerate(itertools.product(grid, grid)):
        rep = cpro_monte_carlo("p1", {"n": n, "m": m}, 10_000, seed=600 + i)
        if abs(rep.estimate - rep.analytic) <= 4 * rep.std_error:
            agreeing += 1
        else:
            # the deterministic corner has no sampling noise: the estimate is
            # exact to 1e-12 while std_error collapses to machine epsilon
            assert abs(rep.estimate - rep.analytic) <= 1e-12, (n, m)
            excluded.append((n, m))
    elapsed = time.perf_counter() - started
    assert agreeing >= 24, f"only {agreeing}/25 cells within 4 standard errors"
    note = f" (noise-free cells {excluded} exact to 1e-12)" if excluded else ""
    report(6, f"{agreeing}/25 grid cells within 4 standard errors "
              f"{timing(elapsed, 60.0)}{note}")


def test_criterion_07_haar_moments():
    rng = np.random.default_rng(17)
    draws = 1_000_000
    a2 = np.empty(draws)
    a4 = np.empty(draws)
    ab = np.empty(draws)
    for i in range(draws):
        qubit = haar_sample(rng)
        w = abs(qubit.alpha) ** 2
        a2[i] = w
        a4[i] = w * w
        ab[i] = w * (abs(qubit.beta) ** 2)
    for values, expected in ((a2, 0.5), (a4, 1 / 3), (ab, 1 / 6)):
        se = values.std(ddof=1) / math.sqrt(draws)
        assert abs(values.mean() - expected) < 5 * se, (expected, values.mean(), se)
    report(7, "1e6-sample moments at 1/2, 1/3, 1/6 within 5 standard errors")


def test_criterion_08_protocol_comparison():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n, m, other = rng.uniform(0.05, 1.0, size=3)
        result = compare_protocols(n, m, other)
        assert result.first_at_least_second, (n, m, other)
        if result.equal:
            assert result.equality_expected
    for n, m, other, expect_equal in (
        (0.5, 0.5, 1.0, True),   # c(n_other) = 1
        (0.5, 0.0, 0.7, True),   # c(m) = 0
        (0.0, 0.5, 0.7, True),   # c(n) = 0
        (0.5, 0.5, 0.7, False),
    ):
        result = compare_protocols(n, m, other)
        assert result.equal == expect_equal
        assert result.equality_expected == expect_equal
        assert abs(concurrence(other) - 1.0) <= 1e-12 or (
            concurrence(m) * concurrence(n) <= 1e-12) or not expect_equal
    report(8, "first protocol never less efficient over 100 random triples")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(19)
    for trial in range(50):
        source = haar_sample(rng)
        complex_weights = trial % 4 == 0
        def weight():
            w = rng.uniform(0.05, 1.3)
            return complex(w, rng.uniform(-0.4, 0.4)) if complex_weights else w
        n, m = weight(), weight()
        receiver = "bob" if trial % 5 == 0 else "charlie"
        if trial % 2 == 0:
            run = run_protocol1(source, n, m, receiver)
            rows = oracle_protocol1(source.alpha, source.beta, n, m, receiver)
        else:
            n2 = weight()
            run = run_protocol2(source, n, n2, m, receiver)
            rows = oracle_protocol2(source.alpha, source.beta, n, n2, m, receiver)
        assert_run_matches_oracle(run, rows, atol=1e-12)
    report(9, "50 random configurations match the brute-force projector path")


def test_criterion_10_mixedness_without_helper_bit():
    rng = np.random.default_rng(20)
    done = 0
    while done < 20:
        source = haar_sample(rng)
        if abs(source.alpha * source.beta) <= 0.05:
            continue
        n, m = rng.uniform(0.1, 1.0, size=2)
        run = run_protocol1(source, n, m)
        for alice_label in ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"):
            rho = bob_bit_withheld_state(run, alice_label)
            assert abs(rho[0, 1]) < 1e-12 and abs(rho[1, 0]) < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        # with the helper's bit supplied, every conditional state is the table row
        assert all(c.ok for c in verify_table1(n, m, source, tolerance=1e-10))
        done += 1
    report(10, "off-diagonals < 1e-12 without the bit; table rows recovered with it")


def test_criterion_11_nparty_reductions_and_strategies():
    started = time.perf_counter()
    rng = np.random.default_rng(21)

    for _ in range(5):
        source = generic_haar(rng)
        n, m = rng.uniform(0.1, 1.0, size=2)
        base = run_protocol1(source, n, m)
        ext = run_nparty_ghz(source, 3, n, m, receiver_index=2)
        for a, b in zip(ext.branches, base.branches):
            assert a.alice_label == b.alice_label
            assert abs(a.probability - b.probability) <= 1e-12
            assert abs(a.fidelity - b.fidelity) <= 1e-12
        n2 = rng.uniform(0.1, 1.0)
        base = run_protocol2(source, n, n2, m)
        ext = run_nparty_bell(source, [n, n2], m, receiver_index=2)
        for a, b in zip(ext.branches, base.branches):
            assert a.alice_label == b.alice_label
            assert abs(a.probability - b.probability) <= 1e-12
            assert abs(a.fidelity - b.fidelity) <= 1e-12

    source = generic_haar(rng)
    for parties in (4, 5):
        for branch in run_nparty_ghz(source, parties, 1, 1).branches:
            assert branch.fidelity == pytest.approx(1.0, abs=1e-12)
        for branch in run_nparty_bell(source, [1] * (parties - 1), 1).branches:
            assert branch.fidelity == pytest.approx(1.0, abs=1e-12)

    # generalized strategies at four parties, oracle-verified
    n = 0.55
    run = run_nparty_ghz(source, 4, n, n)  # m = n pairing
    hit = {b.alice_label for b in run.branches if b.fidelity >= 1 - 1e-9}
    assert hit == {"PhiMinus", "PsiPlus"}
    assert_run_matches_oracle(
        run, oracle_nparty_ghz(source.alpha, source.beta, 4, n, n), atol=1e-12
    )

    ns = (0.5, 0.4, 0.8)
    m = choose_m("ghz-minus", ns=ns)
    run = run_nparty_bell(source, ns, m)
    hit = {b.alice_label for b in run.branches if b.fidelity >= 1 - 1e-9}
    assert hit == nparty_bell_targets("ghz-minus", 4) == {"S0000Minus", "S1000Minus"}
    assert_run_matches_oracle(
        run, oracle_nparty_bell(source.alpha, source.beta, ns, m), atol=1e-12
    )
    m = choose_m("ghz-plus", ns=ns)
    run = run_nparty_bell(source, ns, m)
    hit = {b.alice_label for b in run.branches if b.fidelity >= 1 - 1e-9}
    assert hit == nparty_bell_targets("ghz-plus", 4) == {"S0000Plus", "S1000Plus"}

    elapsed = time.perf_counter() - started
    report(11, "reductions, maximal 4/5-party runs, generalized strategies "
               f"{timing(elapsed, 30.0)}")


def test_criterion_12_cli_reproducibility():
    commands = (
        ("run", "--protocol", "p2", "--n1", "0.5", "--n2", "0.4", "--m", "0.3",
         "--input", "haar:13"),
        ("verify-tables",),
        ("efficiency", "--protocol", "p1", "--n", "0.6", "--m", "0.9",
         "--samples", "150", "--seed", "31"),
        ("sweep", "--protocol", "p1", "--param", "n", "--from", "0.2", "--to", "0.8",
         "--steps", "3", "--m", "n", "--samples", "25", "--seed", "8"),
    )
    for command in commands:
        outputs = [
            subprocess.run([sys.executable, "-m", "qsts", *command],
                           capture_output=True, text=True)
            for _ in range(2)
        ]
        assert outputs[0].returncode == 0, outputs[0].stderr
        assert outputs[0].stdout == outputs[1].stdout
        assert outputs[0].stdout.strip()
    report(12, "four CLI commands byte-identical across repeated seeded runs")
