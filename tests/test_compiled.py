"""The compiled branch instrument: completeness and its guard, the closed
form against the dense reference, branch identities, a fresh compile on
every call, the weight edges (zero, tiny, huge, non-finite) for every
runner, and the strategies' unit-fidelity targets over the whole weight
space."""

import cmath
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_run_matches_oracle
from dense_reference import dense_compile
from oracle import oracle_nparty_bell, oracle_nparty_ghz, oracle_protocol1, oracle_protocol2
from qsts import (
    STRATEGIES,
    SUCCESS_FIDELITY,
    DegenerateChannelError,
    InputQubit,
    choose_m,
    compile_protocol,
    nparty_bell_targets,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
    strategy_targets,
)
from qsts import protocols
from qsts.protocols import PRODUCT_RULES

SOURCE = InputQubit(0.6, 0.8j)

WEIGHT_CASES = {
    "real": (0.45, 0.8, 1.3),
    "complex": (0.5 + 0.3j, 0.9j, 0.7 - 0.4j),
    "zero": (0.0, 0.6, 0.0),
    "tiny": (1e-300, 0.6, -1e-300),
    "huge": (1e155, 0.6, -1e300),
}


def _compiled_cases(weights):
    """(runner call, compile key) for every protocol and receiver."""
    a, b, c = weights
    cases = []
    for name, r in (("charlie", 2), ("bob", 1)):
        cases.append((lambda q, name=name: run_protocol1(q, a, b, name),
                      ("ghz", (complex(a),), complex(b), 3, r, "TABLE1")))
    for name, pair in (("charlie", (a, c)), ("bob", (c, a))):
        cases.append((lambda q, name=name: run_protocol2(q, a, c, b, name),
                      ("bell", tuple(map(complex, pair)), complex(b), 3, 2, "TABLE2")))
    for parties in (3, 4, 5):
        for r in range(1, parties):
            cases.append((lambda q, p=parties, r=r: run_nparty_ghz(q, p, a, b, r),
                          ("ghz", (complex(a),), complex(b), parties, r, "TABLE1")))
    for ns in ((a, c), (a, b, c)):
        for r in range(1, len(ns) + 1):
            cases.append((lambda q, ns=ns, r=r: run_nparty_bell(q, ns, b, r),
                          ("bell", tuple(map(complex, ns)), complex(b), len(ns) + 1, r, None)))
    return cases


def _check_run(run):
    total = math.fsum(b.probability for b in run.branches)
    assert abs(total - 1.0) <= 1e-12
    assert all(0.0 <= b.fidelity <= 1.0 for b in run.branches)


# ── the instrument ───────────────────────────────────────────────────────

@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_instrument_complete_and_matches_branches(case):
    psi = np.array([SOURCE.alpha, SOURCE.beta])
    for run_fn, key in _compiled_cases(WEIGHT_CASES[case]):
        compiled = compile_protocol(*key)
        diagonal = compiled.diagonal
        assert diagonal.shape == (len(compiled.corrections), 2)
        completeness = (np.abs(diagonal) ** 2).sum(axis=0)
        assert np.abs(completeness - 1.0).max() <= 1e-12, key
        run = run_fn(SOURCE)
        assert len(run.branches) == diagonal.shape[0]
        for branch, d_j, c_j in zip(run.branches, diagonal, compiled.corrections):
            assert branch.correction is c_j
            k_j = np.diag(d_j)
            # the measurement residue M_j = C_j^dagger K_j gives the same probability
            amplitude = c_j.matrix.conj().T @ (k_j @ psi)
            assert branch.probability == pytest.approx(np.vdot(amplitude, amplitude).real,
                                                       rel=0, abs=1e-15)
            if branch.receiver_state is not None:
                np.testing.assert_allclose(
                    branch.receiver_state.amplitudes * math.sqrt(branch.probability),
                    k_j @ psi, rtol=0, atol=1e-15)
            transmitted = abs(np.vdot(psi, k_j @ psi)) ** 2
            assert branch.probability * branch.fidelity == pytest.approx(
                transmitted, rel=0, abs=1e-14), (key, branch.alice_label)


# Every (family, parties, receiver) of the party caps, with the tables in use.
COMPILE_LAYOUTS = (
    [("ghz", n, r, "TABLE1") for n in range(3, 11) for r in range(1, n)]
    + [("bell", 3, 2, "TABLE2")]
    + [("bell", n, r, None) for n in range(3, 7) for r in range(1, n)]
)

special_weights = st.sampled_from(
    (0.0, -0.0, 1.0, 1e-320, -1e-320, 1e-320j, 1e-300, 1e300, -1e300, 1e300j, 1e-300 + 1e300j))
# real, complex, 0, subnormal and 1e+-300 weights
compile_weights = st.one_of(
    special_weights,
    st.floats(-3.0, 3.0),
    st.builds(cmath.rect, st.floats(0.0, 20.0), st.floats(0.0, 2 * math.pi)),
    st.builds(lambda exponent, phase: cmath.rect(10.0 ** exponent, phase),
              st.floats(-320.0, 300.0), st.floats(0.0, 2 * math.pi)),
)


@settings(max_examples=25, deadline=None)
@given(m=compile_weights, ns=st.lists(compile_weights, min_size=5, max_size=5))
def test_closed_form_matches_the_dense_reference(m, ns):
    m = complex(m)
    for family, parties, receiver, table in COMPILE_LAYOUTS:
        weights = tuple(map(complex, ns[:1] if family == "ghz" else ns[:parties - 1]))
        key = (family, weights, m, parties, receiver, table)
        compiled = compile_protocol(*key)
        alice, helpers, corrections, bits, operators = dense_compile(*key)
        assert (compiled.alice_labels, compiled.helper_labels, compiled.classical_bits) == (
            alice, helpers, bits), key
        assert all(a is b for a, b in zip(compiled.corrections, corrections, strict=True)), key
        # every corrected operator is diagonal, and the compile keeps its diagonal
        assert (operators[:, [0, 1], [1, 0]] == 0).all(), key
        diagonal = np.diagonal(operators, axis1=1, axis2=2)
        assert np.abs(compiled.diagonal - diagonal).max() <= 1e-15, key


def test_completeness_guard_rejects_a_perturbed_instrument(monkeypatch):
    key = ("bell", (0.5 + 0.2j, 0.7, -1.3), 0.8j, 4, 2, None)
    compile_protocol(*key)  # the intact instrument passes
    layout = protocols._layout

    def perturbed(*args):
        *head, sign = layout(*args)
        sign = sign.copy()
        sign.flat[5] *= 1.0 + 1e-6  # one term off by a part in a million
        return (*head, sign)

    monkeypatch.setattr(protocols, "_layout", perturbed)
    with pytest.raises(ValueError, match="not complete"):
        compile_protocol(*key)


@pytest.mark.parametrize(
    "family, weights, parties, receiver, table, message",
    [
        # complete, but TABLE2's corrections fit only the last receiver
        ("bell", (0.5, 0.8), 3, 1, "TABLE2", "at receiver 1 do not map each term to its column"),
        ("ghz", (0.5,), 4, 0, "TABLE1", "receiver_index 0 out of range for 4 parties"),
        ("ghz", (0.5,), 3, 5, "TABLE1", "receiver_index 5 out of range for 3 parties"),
        ("bell", (0.5, 0.8), 3, 2, "TABLE1",
         "table 'TABLE1' does not fit the bell family at N = 3"),
        ("bell", (0.5, 0.8, 0.3), 4, 3, "TABLE2",
         "table 'TABLE2' does not fit the bell family at N = 4"),
        ("w", (0.5,), 3, 2, None, "unknown channel family 'w'"),
        ("ghz", (0.5,), 2, 1, "TABLE1", "the ghz family takes 3..10 parties, got 2"),
        ("bell", (0.5,) * 6, 7, 6, None, "the bell family takes 3..6 parties, got 7"),
    ],
)
def test_compile_rejects_a_layout_that_does_not_fit(
        family, weights, parties, receiver, table, message):
    m = choose_m("ghz-plus", n1=0.5, n2=0.8)
    with pytest.raises(ValueError, match=message):
        compile_protocol(family, tuple(map(complex, weights)), m, parties, receiver, table)


def test_every_call_compiles_afresh():
    # +0.0 and -0.0 compare and hash equal, so a compile cached on its
    # arguments would hand the second call the first call's zero signs
    weights = (0.5 + 0.2j, 0.7)
    plus = compile_protocol("bell", weights, complex(0.0), 3, 2, None)
    minus = compile_protocol("bell", weights, complex(-0.0), 3, 2, None)
    assert np.array_equal(plus.diagonal, minus.diagonal)
    signs = [np.signbit(c.diagonal.view(np.float64)) for c in (plus, minus)]
    assert (signs[0] != signs[1]).any()


def _same_instrument(a, b):
    return (a.alice_labels == b.alice_labels and a.helper_labels == b.helper_labels
            and a.classical_bits == b.classical_bits
            and all(x is y for x, y in zip(a.corrections, b.corrections))
            and a.diagonal.tobytes() == b.diagonal.tobytes())


@pytest.mark.parametrize("n, m", [(0.45, 1.3), (0.5 + 0.3j, 0.9j), (0.0, 0.6), (0.6, 0.0),
                                  (1e-300, -0.7), (1e300, 0.4 - 0.2j)])
def test_ghz_instrument_is_the_same_at_every_receiver(n, m):
    # the GHZ-type channel is symmetric in the parties
    for parties in range(3, 11):
        first = compile_protocol("ghz", (complex(n),), complex(m), parties, 1, "TABLE1")
        for r in range(2, parties):
            other = compile_protocol("ghz", (complex(n),), complex(m), parties, r, "TABLE1")
            assert _same_instrument(first, other), (parties, r)


def _record(run):
    return [(b.alice_label, b.helper_labels, b.probability, b.fidelity, b.correction.name,
             None if b.receiver_state is None else b.receiver_state.amplitudes.tobytes(),
             b.classical_bits) for b in run.branches]


@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_p1_is_the_ghz_preset_at_three_parties(case):
    n, m, _ = WEIGHT_CASES[case]
    for source in (SOURCE, InputQubit(1.0, 0.0), InputQubit(0.0, 1.0)):
        for name, index in (("bob", 1), ("charlie", 2)):
            p1 = run_protocol1(source, n, m, name)
            ghz = run_nparty_ghz(source, 3, n, m, index)
            assert _record(p1) == _record(ghz), (case, name)
            assert (p1.protocol, p1.params, p1.receiver) == ("p1", {"n": n, "m": m}, name)
            assert (ghz.protocol, ghz.params, ghz.receiver) == (
                "nparty-ghz", {"n": n, "m": m, "parties": 3}, f"party{index}")


# ── edge weights ─────────────────────────────────────────────────────────

@pytest.mark.parametrize("huge", [1e155, 1e300, -1e308])
def test_huge_weights_run_on_every_runner(huge):
    for run in (
        run_protocol1(SOURCE, huge, 0.5),
        run_protocol1(SOURCE, 0.5, huge, "bob"),
        run_protocol2(SOURCE, huge, 0.4, 0.7),
        run_protocol2(SOURCE, 0.4, 0.7, huge, "bob"),
        run_nparty_ghz(SOURCE, 5, huge, huge),
        run_nparty_bell(SOURCE, (0.3, huge, 0.6), huge),
    ):
        _check_run(run)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 complex(0.5, float("nan"))])
def test_non_finite_weights_raise_value_error(bad):
    calls = (
        lambda: run_protocol1(SOURCE, bad, 0.5),
        lambda: run_protocol1(SOURCE, 0.5, bad),
        lambda: run_protocol2(SOURCE, 0.5, bad, 0.5),
        lambda: run_nparty_ghz(SOURCE, 4, 0.5, bad),
        lambda: run_nparty_bell(SOURCE, (0.5, 0.5, bad), 0.5),
    )
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


# ── properties over random complex weights ───────────────────────────────

weights = st.builds(cmath.rect, st.floats(0.0, 20.0), st.floats(0.0, 2 * math.pi))
inputs = st.builds(
    lambda w, phase: InputQubit(math.sqrt(w), math.sqrt(1.0 - w) * cmath.exp(1j * phase)),
    st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None)
@given(source=inputs, n=weights, m=weights, other=weights,
       receiver=st.sampled_from(("bob", "charlie")))
def test_probabilities_and_fidelities_over_complex_weights(source, n, m, other, receiver):
    a, b = source.alpha, source.beta
    run = run_protocol1(source, n, m, receiver)
    _check_run(run)
    assert_run_matches_oracle(run, oracle_protocol1(a, b, n, m, receiver))
    run = run_protocol2(source, n, other, m, receiver)
    _check_run(run)
    assert_run_matches_oracle(run, oracle_protocol2(a, b, n, other, m, receiver))


@settings(max_examples=25, deadline=None)
@given(source=inputs, n=weights, m=weights, other=weights, parties=st.integers(3, 5))
def test_nparty_probabilities_and_fidelities_over_complex_weights(source, n, m, other, parties):
    a, b = source.alpha, source.beta
    run = run_nparty_ghz(source, parties, n, m)
    _check_run(run)
    assert_run_matches_oracle(run, oracle_nparty_ghz(a, b, parties, n, m))
    ns = (n, other) + (m,) * (parties - 3)
    run = run_nparty_bell(source, ns, other)
    _check_run(run)
    if parties <= 4:  # one oracle call costs ~0.5 s at N = 5
        assert_run_matches_oracle(run, oracle_nparty_bell(a, b, ns, other))


# ── strategy targets over the whole weight space ─────────────────────────

magnitudes = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
extreme_weights = st.one_of(
    st.builds(lambda size, sign: sign * size, magnitudes, st.sampled_from((1.0, -1.0))),
    st.builds(cmath.rect, magnitudes, st.floats(0.0, 2 * math.pi)),
)


_LOG10_MAX = math.log10(sys.float_info.max)


def _log10_size(strategy, channel):
    """log10 |m| of the strategy's exact rule, from the weights' sizes."""
    sizes = {key: math.log10(abs(value)) for key, value in channel.items() if key != "ns"}
    if strategy in ("phi-plus", "psi-minus"):
        return -sizes["n"]
    if strategy in ("phi-minus", "psi-plus"):
        return sizes["n"]
    if strategy in PRODUCT_RULES:
        total = math.fsum(math.log10(abs(w)) for w in channel.get("ns", ()))
        total += sizes.get("n1", 0.0) + sizes.get("n2", 0.0)
        return total if strategy.endswith("minus") else -total
    ratio = sizes["n1"] - sizes["n2"]
    return ratio if strategy.endswith("plus") else -ratio


def _assert_live_targets_exact(strategy, channel, run, targets):
    """Run at the strategy's m: every live target branch has fidelity 1.

    No drawn weight is 0, so no rule is degenerate.  ``choose_m`` itself
    refuses, naming the strategy, an m beyond the range of a double, and
    only such an m.
    """
    try:
        m = choose_m(strategy, **channel)
    except DegenerateChannelError:
        raise
    except ValueError as exc:
        assert repr(strategy) in str(exc)
        assert _log10_size(strategy, channel) > _LOG10_MAX - 0.5, (strategy, channel)
        return
    assert cmath.isfinite(m)
    for branch in run(m=m).branches:
        if branch.alice_label in targets and branch.receiver_state is not None:
            assert branch.fidelity >= SUCCESS_FIDELITY, (strategy, channel, branch.alice_label)


@settings(max_examples=100, deadline=None)
@given(source=inputs, n=extreme_weights, other=extreme_weights,
       more=st.lists(extreme_weights, min_size=2, max_size=2),
       ghz_parties=st.integers(4, 6), bell_parties=st.integers(3, 5), data=st.data())
def test_strategies_reach_their_targets_over_the_weight_space(
        source, n, other, more, ghz_parties, bell_parties, data):
    real = n.imag == 0.0
    for name, strategy in STRATEGIES.items():
        for receiver in ("bob", "charlie"):
            if strategy.protocol == "p1":
                _assert_live_targets_exact(
                    name, {"n": n}, partial(run_protocol1, source, n, receiver=receiver),
                    strategy_targets(name, real=real))
            else:
                # choose_m takes the helper's channel as n1, the receiver's as n2
                helper, own = (other, n) if receiver == "bob" else (n, other)
                _assert_live_targets_exact(
                    name, {"n1": helper, "n2": own},
                    partial(run_protocol2, source, n, other, receiver=receiver),
                    strategy_targets(name))
    receiver = data.draw(st.integers(1, ghz_parties - 1))
    for name, strategy in STRATEGIES.items():
        if strategy.protocol == "p1":
            _assert_live_targets_exact(
                name, {"n": n},
                partial(run_nparty_ghz, source, ghz_parties, n, receiver_index=receiver),
                strategy_targets(name, real=real))
    ns = (n, other, *more)[:bell_parties - 1]
    receiver = data.draw(st.integers(1, bell_parties - 1))
    for name in PRODUCT_RULES:
        _assert_live_targets_exact(
            name, {"ns": ns}, partial(run_nparty_bell, source, ns, receiver_index=receiver),
            nparty_bell_targets(name, bell_parties))
