"""Closed-form efficiencies, the Haar sampler, and the Monte-Carlo estimator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_haar_rate, exact_success, generic_haar
from qsts import (
    STRATEGIES,
    choose_m,
    compare_protocols,
    compile_protocol,
    concurrence,
    cpro1_analytic,
    cpro2_analytic,
    cpro_monte_carlo,
    haar_sample,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
    transmission_sum,
)
from qsts.efficiency import _closed_form
from qsts.protocols import PRODUCT_RULES, compile_params

EXTREME_WEIGHTS = (1e155, 1e300, -1e308, 1e-300)


# ── concurrence and closed forms ─────────────────────────────────────────

def test_concurrence_values():
    assert concurrence(1) == pytest.approx(1.0)
    assert concurrence(0) == 0.0
    assert concurrence(0.5) == pytest.approx(0.8)
    assert concurrence(2) == concurrence(0.5)


def test_cpro1_hand_values():
    assert cpro1_analytic(0.5, 0.5) == pytest.approx(0.88, abs=1e-12)
    assert cpro1_analytic(1, 1) == pytest.approx(1.0, abs=1e-12)
    for n in (0.2, 0.7, 1.0):
        assert cpro1_analytic(n, 0) == pytest.approx(2 / 3, abs=1e-15)


def test_cpro2_hand_values():
    assert cpro2_analytic(1, 1, 0.5) == pytest.approx(14 / 15, abs=1e-12)
    assert cpro2_analytic(1, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert cpro2_analytic(0.4, 0.9, 0) == pytest.approx(2 / 3, abs=1e-15)


def test_cpro1_permutation_invariance_exact(rng):
    for _ in range(50):
        n, m = rng.uniform(0.0, 2.0, size=2)
        assert cpro1_analytic(n, m) == cpro1_analytic(m, n)


def test_cpro2_permutation_invariance_exact(rng):
    for _ in range(30):
        x = rng.uniform(0.0, 2.0, size=3)
        values = {cpro2_analytic(*perm) for perm in itertools.permutations(x)}
        assert len(values) == 1


def test_cpro_monotone_in_each_weight():
    grid = np.linspace(0.05, 1.0, 20)
    c1 = [cpro1_analytic(n, 0.7) for n in grid]
    assert all(b >= a for a, b in zip(c1, c1[1:]))
    c2 = [cpro2_analytic(n1, 0.6, 0.7) for n1 in grid]
    assert all(b >= a for a, b in zip(c2, c2[1:]))
    c2m = [cpro2_analytic(0.6, 0.9, m) for m in grid]
    assert all(b >= a for a, b in zip(c2m, c2m[1:]))


def test_cpro_range(rng):
    for _ in range(100):
        n, m, n2 = rng.uniform(0.0, 1.0, size=3)
        assert 2 / 3 - 1e-12 <= cpro1_analytic(n, m) <= 1 + 1e-12
        assert 2 / 3 - 1e-12 <= cpro2_analytic(n, n2, m) <= 1 + 1e-12


@pytest.mark.parametrize("x", EXTREME_WEIGHTS)
def test_concurrence_is_overflow_safe(x):
    expected = 2.0 / abs(x) if abs(x) > 1.0 else 2.0 * abs(x)
    assert concurrence(x) == pytest.approx(expected, rel=1e-15)
    assert concurrence(x) == concurrence(-x)


@pytest.mark.parametrize("x", EXTREME_WEIGHTS)
def test_closed_forms_finite_at_extreme_weights(x):
    # c(x) is below 1e-154 at every extreme weight, so each rate is 2/3 to
    # double precision; the squared weight used to overflow to NaN
    for rate in (cpro1_analytic(x, x), cpro1_analytic(x, 0.5), cpro1_analytic(0.5, x),
                 cpro2_analytic(x, x, x), cpro2_analytic(x, 0.5, 1.0),
                 cpro2_analytic(1.0, 0.5, x)):
        assert rate == pytest.approx(2 / 3, abs=1e-15)
    # and the engine's exact Haar rate at the same weights agrees
    p1 = compile_protocol("ghz", (complex(x),), complex(0.5), 3, 2, "TABLE1")
    assert exact_haar_rate(p1) == pytest.approx(cpro1_analytic(x, 0.5), abs=1e-14)
    p2 = compile_protocol("bell", (complex(x), complex(0.5)), complex(0.8), 3, 2, "TABLE2")
    assert exact_haar_rate(p2) == pytest.approx(cpro2_analytic(x, 0.5, 0.8), abs=1e-14)


def test_closed_forms_symmetric_under_inverse_weight(rng):
    # c(x) = c(1/x): the |x| > 1 branch of the overflow-safe form meets the other
    for x in rng.uniform(1.0, 50.0, size=20):
        assert cpro1_analytic(x, 0.7) == pytest.approx(cpro1_analytic(1 / x, 0.7), abs=1e-15)
        assert cpro2_analytic(0.4, x, -x) == pytest.approx(
            cpro2_analytic(0.4, 1 / x, -1 / x), abs=1e-15)


# ── Haar sampling ────────────────────────────────────────────────────────

def test_haar_moments_quick():
    rng = np.random.default_rng(404)
    draws = 100_000
    a2 = np.empty(draws)
    a4 = np.empty(draws)
    ab = np.empty(draws)
    for i in range(draws):
        q = haar_sample(rng)
        w = abs(q.alpha) ** 2
        a2[i], a4[i], ab[i] = w, w * w, w * (abs(q.beta) ** 2)
    for sample_vals, expected in ((a2, 0.5), (a4, 1 / 3), (ab, 1 / 6)):
        se = sample_vals.std(ddof=1) / math.sqrt(draws)
        assert abs(sample_vals.mean() - expected) < 5 * se


def test_haar_sample_normalised_and_reproducible():
    q1 = haar_sample(np.random.default_rng(5))
    q2 = haar_sample(np.random.default_rng(5))
    assert q1.alpha == q2.alpha and q1.beta == q2.beta
    assert abs(q1.alpha) ** 2 + abs(q1.beta) ** 2 == pytest.approx(1.0, abs=1e-12)


# ── Monte-Carlo estimator ────────────────────────────────────────────────

def test_mc_maximal_weights_is_exact():
    report = cpro_monte_carlo("p1", {"n": 1, "m": 1}, 100, 7)
    assert report.estimate == pytest.approx(1.0, abs=1e-12)
    assert report.std_error == pytest.approx(0.0, abs=1e-13)
    assert report.analytic == pytest.approx(1.0, abs=1e-12)


def test_mc_matches_analytic_p1():
    report = cpro_monte_carlo("p1", {"n": 0.5, "m": 0.5}, 10_000, 21)
    assert report.analytic == pytest.approx(0.88, abs=1e-12)
    assert abs(report.estimate - report.analytic) <= 4 * report.std_error


def test_mc_matches_analytic_p2():
    report = cpro_monte_carlo("p2", {"n1": 1, "n2": 1, "m": 0.5}, 10_000, 22)
    assert report.analytic == pytest.approx(14 / 15, abs=1e-12)
    assert abs(report.estimate - report.analytic) <= 4 * report.std_error


def test_mc_complex_weights_have_no_closed_form():
    report = cpro_monte_carlo("p1", {"n": 0.5 + 0.1j, "m": 0.5}, 200, 3)
    assert report.analytic is None
    assert 0.0 <= report.estimate <= 1.0 + 5 * report.std_error


def test_mc_reproducible_and_thread_insensitive():
    kwargs = dict(protocol="p1", params={"n": 0.4, "m": 0.8}, samples=400, seed=99)
    serial = cpro_monte_carlo(**kwargs)
    again = cpro_monte_carlo(**kwargs)
    threaded = cpro_monte_carlo(**kwargs, threads=4)
    assert serial.estimate == again.estimate == threaded.estimate
    assert serial.std_error == threaded.std_error


def test_mc_nparty_estimates():
    report = cpro_monte_carlo(
        "nparty-ghz", {"parties": 4, "n": 1, "m": 1}, 50, 17
    )
    assert report.analytic is None
    assert report.estimate == pytest.approx(1.0, abs=1e-12)
    report = cpro_monte_carlo("nparty-bell", {"ns": (1, 1, 1), "m": 1}, 20, 17)
    assert report.estimate == pytest.approx(1.0, abs=1e-12)


def test_mc_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        cpro_monte_carlo("p1", {"n": 1, "m": 1}, 0, 1)
    with pytest.raises(ValueError):
        cpro_monte_carlo("p9", {"n": 1, "m": 1}, 10, 1)


# ── the batched estimator against the per-sample runner loop ──────────────

MC_WEIGHT_CASES = {
    "real": (0.45, 0.8, 1.3),
    "complex": (0.5 + 0.3j, 0.9j, 0.7 - 0.4j),
    "zero": (0.0, 0.6, 0.0),
    "tiny": (1e-300, 0.6, -1e-300),
    "huge": (1e155, 0.6, -1e300),
}


def _runner(protocol, params):
    """The runner call the estimator's parameter set stands for."""
    if protocol == "p1":
        return lambda q: run_protocol1(q, params["n"], params["m"],
                                       params.get("receiver", "charlie"))
    if protocol == "p2":
        return lambda q: run_protocol2(q, params["n1"], params["n2"], params["m"],
                                       params.get("receiver", "charlie"))
    if protocol == "nparty-ghz":
        return lambda q: run_nparty_ghz(q, params["parties"], params["n"], params["m"],
                                        params.get("receiver_index"))
    return lambda q: run_nparty_bell(q, params["ns"], params["m"],
                                     params.get("receiver_index"))


def _reference_mc(protocol, params, samples, seed):
    """The estimator as a loop: one runner call and transmission_sum per sample."""
    run = _runner(protocol, params)
    children = np.random.SeedSequence(seed).spawn(samples)
    values = np.empty(samples, dtype=float)
    for i, child in enumerate(children):
        values[i] = transmission_sum(run(haar_sample(np.random.default_rng(child))))
    std_error = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(values.mean()), std_error


def _mc_cases(a, b, c):
    """(protocol, params) for every protocol and receiver at weights a, b, c."""
    cases = []
    for receiver in ("charlie", "bob"):
        cases.append(("p1", {"n": a, "m": b, "receiver": receiver}))
        cases.append(("p2", {"n1": a, "n2": c, "m": b, "receiver": receiver}))
    for parties in (3, 4):
        for r in range(1, parties):
            cases.append(("nparty-ghz", {"parties": parties, "n": a, "m": b,
                                         "receiver_index": r}))
    for ns in ((a, c), (a, b, c)):
        for r in range(1, len(ns) + 1):
            cases.append(("nparty-bell", {"ns": ns, "m": b, "receiver_index": r}))
    return cases


@pytest.mark.parametrize("weights", MC_WEIGHT_CASES.values(), ids=MC_WEIGHT_CASES.keys())
def test_batched_mc_equals_per_sample_runner_loop(weights):
    for protocol, params in _mc_cases(*weights):
        for samples, seed in ((48, 1234), (1, 5)):
            report = cpro_monte_carlo(protocol, params, samples, seed)
            estimate, std_error = _reference_mc(protocol, params, samples, seed)
            assert abs(report.estimate - estimate) <= 1e-14, (protocol, params)
            assert abs(report.std_error - std_error) <= 1e-14, (protocol, params)


def test_mc_honours_the_receiver():
    params = {"n1": 0.5 + 0.3j, "n2": 0.8, "m": 0.6 - 0.2j}
    bob = cpro_monte_carlo("p2", {**params, "receiver": "bob"}, 200, 5)
    charlie = cpro_monte_carlo("p2", params, 200, 5)
    assert abs(bob.estimate - charlie.estimate) > 1e-3
    assert abs(bob.estimate - _reference_mc("p2", {**params, "receiver": "bob"}, 200, 5)[0]) <= 1e-14


@settings(max_examples=10, deadline=None)
@given(n=st.complex_numbers(max_magnitude=20.0), m=st.complex_numbers(max_magnitude=20.0))
def test_every_ghz_receiver_gives_the_same_instrument_and_estimate(n, m):
    # the GHZ-type channel is symmetric in the parties
    for parties in range(3, 11):
        seen = set()
        for r in range(1, parties):
            params = {"parties": parties, "n": n, "m": m, "receiver_index": r}
            compiled = compile_params("nparty-ghz", params)[0]
            report = cpro_monte_carlo("nparty-ghz", params, 16, 7)
            seen.add((compiled.alice_labels, compiled.helper_labels, compiled.classical_bits,
                      tuple(c.name for c in compiled.corrections), compiled.diagonal.tobytes(),
                      report.estimate.hex(), report.std_error.hex()))
        assert len(seen) == 1, (parties, n, m)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "protocol, params",
    [
        ("nparty-ghz", {"parties": 2, "n": 0.5, "m": 0.5}),
        ("nparty-ghz", {"parties": 11, "n": 0.5, "m": 0.5}),
        ("nparty-ghz", {"parties": 4, "n": 0.5, "m": 0.5, "receiver_index": 0}),
        ("nparty-ghz", {"parties": 4, "n": 0.5, "m": 0.5, "receiver_index": 4}),
        ("nparty-bell", {"ns": (0.5, 0.4, 0.8), "m": 0.5, "receiver_index": 0}),
        ("nparty-bell", {"ns": (0.5, 0.4, 0.8), "m": 0.5, "receiver_index": 4}),
        ("nparty-bell", {"ns": (0.5,), "m": 0.5}),
        ("nparty-bell", {"ns": (0.5,) * 6, "m": 0.5}),
        ("p1", {"n": _NAN, "m": 0.5}),
        ("p1", {"n": 0.5, "m": _INF}),
        ("p2", {"n1": 0.5, "n2": complex(0.0, _INF), "m": 0.5}),
        ("nparty-ghz", {"parties": 4, "n": -_INF, "m": 0.5}),
        ("nparty-bell", {"ns": (0.5, _NAN), "m": 0.5}),
    ],
)
def test_mc_rejects_exactly_what_the_runners_reject(protocol, params):
    with pytest.raises(ValueError):
        _runner(protocol, params)(haar_sample(np.random.default_rng(0)))
    with pytest.raises(ValueError):
        cpro_monte_carlo(protocol, params, 10, 1)


@pytest.mark.parametrize("seed", [-1, -2**63])
def test_mc_rejects_a_negative_seed_naming_it(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
        cpro_monte_carlo("p1", {"n": 0.5, "m": 0.5}, 10, seed)


# ── the exact Haar rate as an oracle ─────────────────────────────────────

def _c(x):
    return 2 * x / (1 + x * x)


def test_exact_rate_equals_closed_forms(rng):
    for _ in range(200):
        n, m, n2 = rng.uniform(-3.0, 3.0, size=3)
        for r in (1, 2):
            p1 = compile_protocol("ghz", (complex(n),), complex(m), 3, r, "TABLE1")
            assert abs(exact_haar_rate(p1) - cpro1_analytic(n, m)) <= 1e-14
        p2 = compile_protocol("bell", (complex(n), complex(n2)), complex(m), 3, 2, "TABLE2")
        assert abs(exact_haar_rate(p2) - cpro2_analytic(n, n2, m)) <= 1e-14


def test_exact_rate_of_nparty_ghz_is_the_p1_form(rng):
    for parties in range(3, 11):
        n, m = rng.uniform(-3.0, 3.0, size=2)
        for r in range(1, parties):
            compiled = compile_protocol("ghz", (complex(n),), complex(m), parties, r, "TABLE1")
            assert abs(exact_haar_rate(compiled) - cpro1_analytic(n, m)) <= 1e-14


def test_exact_rate_of_nparty_bell_is_the_product_form(rng):
    for parties in range(3, 7):
        ns = rng.uniform(-3.0, 3.0, size=parties - 1)
        m = rng.uniform(-3.0, 3.0)
        expected = (2 / 3) * (1 + _c(m) * np.prod([_c(x) for x in ns]) / 2)
        for r in range(1, parties):
            compiled = compile_protocol("bell", tuple(map(complex, ns)), complex(m), parties, r,
                                        None)
            assert abs(exact_haar_rate(compiled) - expected) <= 1e-14


# ── B = 2 sum_j Re(a_j conj(b_j)), the diagonal's one number ────────────

def _b(compiled):
    a, b = compiled.diagonal.T
    return 2.0 * float((a * b.conj()).real.sum())


complex_weights = st.complex_numbers(max_magnitude=20.0)


@settings(max_examples=30, deadline=None)
@given(n=complex_weights, m=complex_weights)
def test_ghz_b_is_the_same_at_every_party_count_and_receiver(n, m):
    n, m = complex(n), complex(m)
    reference = _b(compile_protocol("ghz", (n,), m, 3, 2, "TABLE1"))
    for parties in range(3, 11):
        for r in range(1, parties):
            b = _b(compile_protocol("ghz", (n,), m, parties, r, "TABLE1"))
            assert abs(b - reference) <= 1e-13, (parties, r)


@settings(max_examples=30, deadline=None)
@given(n=complex_weights, m=complex_weights, other=complex_weights,
       source=st.integers(0, 2**32 - 1).map(lambda s: haar_sample(np.random.default_rng(s))))
def test_transmission_sum_is_one_minus_2_minus_b_times_w_1_minus_w(n, m, other, source):
    # completeness makes sum_j |a_j|^2 = sum_j |b_j|^2 = 1, so the input's
    # phase drops out and only w = |alpha|^2 enters
    w = abs(source.alpha) ** 2
    for protocol, params in _mc_cases(complex(n), complex(m), complex(other)):
        expected = 1.0 - (2.0 - _b(compile_params(protocol, params)[0])) * w * (1.0 - w)
        actual = transmission_sum(_runner(protocol, params)(source))
        assert abs(actual - expected) <= 1e-12, (protocol, params)


real_weights = st.one_of(
    st.just(0.0),
    st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
              st.floats(-300.0, 300.0), st.sampled_from((1.0, -1.0))),
)


@settings(max_examples=60, deadline=None)
@given(n=real_weights, m=real_weights, more=st.lists(real_weights, min_size=4, max_size=4))
def test_exact_rate_equals_the_closed_form_over_the_weight_space(n, m, more):
    cases = []
    for receiver in ("bob", "charlie"):
        cases.append(("p1", {"n": n, "m": m, "receiver": receiver}, (n, m)))
        cases.append(("p2", {"n1": n, "n2": more[0], "m": m, "receiver": receiver},
                      (n, more[0], m)))
    for parties in range(3, 11):
        for r in range(1, parties):
            cases.append(("nparty-ghz", {"parties": parties, "n": n, "m": m,
                                         "receiver_index": r}, (n, m)))
    for parties in range(3, 7):
        ns = (n, *more)[:parties - 1]
        for r in range(1, parties):
            cases.append(("nparty-bell", {"ns": ns, "m": m, "receiver_index": r}, (*ns, m)))
    for protocol, params, weights in cases:
        compiled, _, _ = compile_params(protocol, params)
        assert abs(exact_haar_rate(compiled) - _closed_form(*weights)) <= 1e-14, (
            protocol, params)


@pytest.mark.parametrize(
    "protocol, weights, m, parties",
    [
        ("p1", (0.5 + 0.3j,), 0.7 - 0.2j, 3),
        ("p1", (0.9j,), 0.4, 3),
        ("p2", (0.5j, 0.8), 0.3 + 0.3j, 3),
        ("p2", (0.6, 0.4 - 0.4j), 0.5, 3),
        ("nparty-ghz", (0.5,), 0.5, 4),
        ("nparty-ghz", (0.3 + 0.2j,), 0.8, 5),
        ("nparty-ghz", (0.7,), 0.4j, 6),
        ("nparty-bell", (0.5, 0.3), 0.6, 3),
        ("nparty-bell", (0.5, 0.4 + 0.1j, 0.8), 0.5, 4),
        ("nparty-bell", (0.6, 0.6j, 0.6, 0.6), 0.8, 5),
    ],
)
def test_seeded_mc_within_five_standard_errors_of_exact_rate(protocol, weights, m, parties):
    if protocol == "p1":
        params = {"n": weights[0], "m": m}
    elif protocol == "p2":
        params = {"n1": weights[0], "n2": weights[1], "m": m}
    elif protocol == "nparty-ghz":
        params = {"parties": parties, "n": weights[0], "m": m}
    else:
        params = {"ns": weights, "m": m}
    exact = exact_haar_rate(compile_params(protocol, params)[0])
    report = cpro_monte_carlo(protocol, params, 4000, 77)
    assert abs(report.estimate - exact) <= 5 * report.std_error


def test_success_only_sum_reproduces_strategy_success_probability(rng):
    # counting only exact branches in the estimator's inner sum recovers
    # the strategy's success probability, input by input
    n = 0.5
    m = choose_m("phi-plus", n=n)
    for _ in range(5):
        qubit = haar_sample(rng)
        run = run_protocol1(qubit, n, m)
        success_sum = sum(
            b.probability for b in run.branches if b.fidelity > 1 - 1e-9
        )
        assert success_sum == pytest.approx(run.success_probability, abs=1e-15)
        assert success_sum == pytest.approx(0.32, abs=1e-12)
        assert transmission_sum(run) >= success_sum


def _strategy_cases():
    """(protocol, params) at every strategy's m: p1/p2 at both receivers,
    the product rules on nparty-bell at 3..5 parties and every receiver."""
    cases = []
    for name, strategy in STRATEGIES.items():
        for receiver in ("bob", "charlie"):
            if strategy.protocol == "p1":
                for n in (0.4, -1.7, 0.5 + 0.3j):
                    cases.append(("p1", {"n": n, "m": choose_m(name, n=n),
                                         "receiver": receiver}))
                continue
            for n1, n2 in ((0.4, 0.7), (-1.3, 0.6 + 0.2j)):
                # choose_m takes the helper's channel as n1, the receiver's as n2
                helper, own = (n2, n1) if receiver == "bob" else (n1, n2)
                cases.append(("p2", {"n1": n1, "n2": n2, "m": choose_m(name, n1=helper, n2=own),
                                     "receiver": receiver}))
    for name in PRODUCT_RULES:
        for ns in ((0.4, -0.7), (0.5 + 0.2j, 1.6, 0.3), (0.8, 0.45, -2.1, 0.6j)):
            for r in range(1, len(ns) + 1):
                cases.append(("nparty-bell", {"ns": ns, "m": choose_m(name, ns=ns),
                                              "receiver_index": r}))
    return cases


def test_exact_success_is_the_runs_success_probability(rng):
    inputs = [generic_haar(rng) for _ in range(4)]
    for protocol, params in _strategy_cases():
        expected = exact_success(compile_params(protocol, params)[0])
        assert expected > 0.0, (protocol, params)
        for qubit in inputs:
            run = _runner(protocol, params)(qubit)
            assert abs(run.success_probability - expected) <= 1e-12, (protocol, params)


def test_exact_success_of_phi_plus_is_half_the_squared_concurrence():
    for n in (0.4, 0.5, 1.7, -0.3):
        compiled, _, _ = compile_params("p1", {"n": n, "m": choose_m("phi-plus", n=n)})
        assert exact_success(compiled) == pytest.approx(concurrence(n) ** 2 / 2, abs=1e-14)
    compiled, _, _ = compile_params("p1", {"n": 0.4, "m": choose_m("phi-plus", n=0.4)})
    assert exact_success(compiled) == pytest.approx(0.237812128418549, abs=1e-14)


# ── protocol comparison ──────────────────────────────────────────────────

def test_compare_protocols_inequality_cases():
    report = compare_protocols(0.5, 0.5, 0.7)
    assert report.first_at_least_second
    assert not report.equal
    assert not report.equality_expected


def test_compare_protocols_equality_cases():
    maximal_other = compare_protocols(0.5, 0.5, 1.0)
    assert maximal_other.equal and maximal_other.equality_expected
    zero_weight = compare_protocols(0.4, 0.0, 0.6)
    assert zero_weight.equal and zero_weight.equality_expected
    assert zero_weight.cpro1 == pytest.approx(2 / 3, abs=1e-15)


def test_compare_protocols_random_sweep(rng):
    for _ in range(100):
        n, m, other = rng.uniform(0.05, 1.0, size=3)
        report = compare_protocols(n, m, other)
        assert report.first_at_least_second
        assert report.equal == report.equality_expected
        assert report.cpro2 == report.cpro2_swapped
