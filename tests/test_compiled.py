"""The compiled branch instrument: completeness, branch identities, caching,
and the weight edges (zero, tiny, huge, non-finite) for every runner."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_run_matches_oracle
from oracle import oracle_nparty_bell, oracle_nparty_ghz, oracle_protocol1, oracle_protocol2
from qsts import (
    InputQubit,
    compile_protocol,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
)

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
                      ("p1", (complex(a),), complex(b), 3, r)))
    for name, pair in (("charlie", (a, c)), ("bob", (c, a))):
        cases.append((lambda q, name=name: run_protocol2(q, a, c, b, name),
                      ("p2", tuple(map(complex, pair)), complex(b), 3, 2)))
    for parties in (3, 4, 5):
        for r in range(1, parties):
            cases.append((lambda q, p=parties, r=r: run_nparty_ghz(q, p, a, b, r),
                          ("nparty-ghz", (complex(a),), complex(b), parties, r)))
    for ns in ((a, c), (a, b, c)):
        for r in range(1, len(ns) + 1):
            cases.append((lambda q, ns=ns, r=r: run_nparty_bell(q, ns, b, r),
                          ("nparty-bell", tuple(map(complex, ns)), complex(b), len(ns) + 1, r)))
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
        kraus = compiled.operators
        assert kraus.shape == (len(compiled.corrections), 2, 2)
        completeness = np.einsum("jri,jrk->ik", kraus.conj(), kraus)
        assert np.abs(completeness - np.eye(2)).max() <= 1e-12, key
        run = run_fn(SOURCE)
        assert len(run.branches) == kraus.shape[0]
        for branch, k_j, c_j in zip(run.branches, kraus, compiled.corrections):
            assert branch.correction is c_j
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


def test_cache_hit_is_bitwise_equal_to_fresh_compile():
    compile_protocol.cache_clear()
    fresh = run_nparty_bell(SOURCE, (0.4 + 0.1j, 0.7, -0.3), 0.55j)
    assert compile_protocol.cache_info().misses == 1
    hit = run_nparty_bell(SOURCE, (0.4 + 0.1j, 0.7, -0.3), 0.55j)
    assert compile_protocol.cache_info().hits == 1
    for a, b in zip(fresh.branches, hit.branches):
        assert (a.alice_label, a.helper_labels, a.correction) == (
            b.alice_label, b.helper_labels, b.correction)
        assert a.probability == b.probability and a.fidelity == b.fidelity
        if a.receiver_state is None:
            assert b.receiver_state is None
        else:
            assert np.array_equal(a.receiver_state.amplitudes, b.receiver_state.amplitudes)


def test_cache_is_bounded():
    assert compile_protocol.cache_info().maxsize == 16


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
