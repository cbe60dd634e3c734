"""Projective measurement: probabilities, post-states, reconstruction."""

import math

import numpy as np
import pytest

from qsts import (
    InputQubit,
    PureState,
    channel_ghz,
    generalized_bell_basis,
    generalized_ghz_basis,
    measure,
    tensor,
    x_basis,
)


def random_state(rng, num_qubits):
    vec = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return PureState(num_qubits, vec / np.linalg.norm(vec))


def reconstruct(state, targets, outcomes, basis):
    """Coherent amplitude-weighted rebuild of the pre-measurement state."""
    k = state.num_qubits
    t = len(targets)
    rebuilt = np.zeros((2,) * k, dtype=complex)
    for out, bstate in zip(outcomes, basis.states):
        if out.post_state is None:
            continue
        joint = np.einsum(
            "i,j->ij", bstate.amplitudes, math.sqrt(out.probability) * out.post_state.amplitudes
        ).reshape((2,) * k)
        rebuilt += np.moveaxis(joint, range(t), targets)
    return rebuilt.reshape(-1)


# ── measure ──────────────────────────────────────────────────────────────

def test_measure_00_in_standard_bell_basis():
    # |00> = (PhiPlus + PhiMinus)/sqrt(2) at weight 1
    outcomes = measure(PureState(2, [1, 0, 0, 0]), [0, 1], generalized_bell_basis(1))
    probs = {o.label: o.probability for o in outcomes}
    assert probs["PhiPlus"] == pytest.approx(0.5, abs=1e-15)
    assert probs["PhiMinus"] == pytest.approx(0.5, abs=1e-15)
    assert probs["PsiPlus"] == pytest.approx(0.0, abs=1e-15)
    assert probs["PsiMinus"] == pytest.approx(0.0, abs=1e-15)
    assert all(o.post_state is None for o in outcomes)  # full-register measurement


def test_measure_x_plus_is_deterministic():
    two = tensor(x_basis().states[0], PureState(1, [1, 0]))
    outcomes = measure(two, [0], x_basis())
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-15)
    assert outcomes[1].probability == pytest.approx(0.0, abs=1e-15)
    assert outcomes[1].post_state is None


def test_measure_joint_state_reproduces_branch_structure():
    # branch for PhiPlus on the (input x channel) state carries a|00> + m* n b|11>
    alpha, beta = 0.6, 0.8j
    n, m = 0.5, 0.25 + 0.4j
    joint = tensor(InputQubit(alpha, beta).as_state(), channel_ghz(n))
    outcomes = measure(joint, [0, 1], generalized_bell_basis(m))
    residual = outcomes[0].post_state
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = alpha
    expected[0b11] = np.conj(m) * n * beta
    expected /= np.linalg.norm(expected)
    phase = np.vdot(expected, residual.amplitudes)
    assert abs(abs(phase) - 1.0) < 1e-12
    np.testing.assert_allclose(residual.amplitudes * phase.conjugate(), expected, atol=1e-12)


def test_measure_probability_conservation_on_grid(rng):
    bell = generalized_bell_basis(0.7)
    ghz = generalized_ghz_basis(0.3 + 0.2j)
    xb = x_basis()
    for _ in range(20):
        k = int(rng.integers(4, 6))
        state = random_state(rng, k)
        for basis, t in ((bell, 2), (ghz, 3), (xb, 1)):
            targets = list(rng.choice(k, size=t, replace=False))
            outcomes = measure(state, targets, basis)
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)


def test_measure_reconstruction_three_and_five_qubits(rng):
    for k, basis, targets in (
        (3, generalized_bell_basis(0.6), [2, 0]),
        (5, generalized_ghz_basis(0.8), [0, 2, 4]),
        (5, generalized_bell_basis(1.3 + 0.1j), [3, 1]),
    ):
        state = random_state(rng, k)
        outcomes = measure(state, targets, basis)
        rebuilt = reconstruct(state, targets, outcomes, basis)
        np.testing.assert_allclose(rebuilt, state.amplitudes, atol=1e-10)
        projector = np.outer(rebuilt, rebuilt.conj())
        expected = np.outer(state.amplitudes, state.amplitudes.conj())
        np.testing.assert_allclose(projector, expected, atol=1e-10)


def test_measure_branches_ignore_global_phase(rng):
    state = random_state(rng, 3)
    phased = PureState(3, np.exp(0.77j) * state.amplitudes)
    basis = generalized_bell_basis(0.4)
    for a, b in zip(measure(state, [0, 1], basis), measure(phased, [0, 1], basis)):
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        if a.post_state is not None:
            overlap = abs(np.vdot(a.post_state.amplitudes, b.post_state.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)


def test_measure_argument_errors():
    state = random_state(np.random.default_rng(1), 3)
    bell = generalized_bell_basis(1)
    with pytest.raises(ValueError):
        measure(state, [0], bell)  # arity mismatch
    with pytest.raises(ValueError):
        measure(state, [0, 0], bell)  # duplicate targets
    with pytest.raises(ValueError):
        measure(state, [0, 3], bell)  # out of range
