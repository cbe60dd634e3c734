"""State-vector algebra: construction, products, unitaries, fidelity."""

import math

import numpy as np
import pytest

from qsts import (
    IDENTITY,
    SIGMA_X,
    SIGMA_X_SIGMA_Z,
    SIGMA_Z,
    SIGMA_Z_SIGMA_X,
    InputQubit,
    PureState,
    SingleQubitUnitary,
    apply_unitary,
    channel_ghz,
    fidelity,
    tensor,
    x_basis,
)

S2 = 1.0 / math.sqrt(2.0)
ZERO, ONE = PureState(1, [1, 0]), PureState(1, [0, 1])


def random_state(rng, num_qubits):
    vec = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return PureState(num_qubits, vec / np.linalg.norm(vec))


# ── construction and invariants ──────────────────────────────────────────

def test_pure_state_rejects_bad_lengths_and_norms():
    with pytest.raises(ValueError):
        PureState(2, [1, 0])
    with pytest.raises(ValueError):
        PureState(1, [1, 1])
    with pytest.raises(ValueError):
        PureState(1, [np.nan, 0])


def test_pure_state_amplitudes_frozen():
    with pytest.raises(ValueError):
        ZERO.amplitudes[0] = 0


def test_input_qubit_invariant():
    InputQubit(0.6, 0.8j)
    with pytest.raises(ValueError):
        InputQubit(1.0, 1.0)
    with pytest.raises(ValueError):
        InputQubit(float("inf"), 0.0)
    # finite amplitudes whose squared modulus is no double
    for huge in (1e200, complex(1e308, 1e308)):
        with pytest.raises(ValueError, match="expected 1"):
            InputQubit(huge, 0.0)


# ── tensor ───────────────────────────────────────────────────────────────

def test_tensor_places_first_factor_leftmost():
    state = tensor(ZERO, ONE)
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])


def test_tensor_input_with_maximal_channel():
    # alpha = 1 against the weight-1 channel: (|0000> + |0111>)/sqrt(2)
    state = tensor(InputQubit(1, 0).as_state(), channel_ghz(1))
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = S2
    expected[0b0111] = S2
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_tensor_preserves_norm(rng):
    for _ in range(20):
        a = random_state(rng, int(rng.integers(1, 4)))
        b = random_state(rng, int(rng.integers(1, 4)))
        assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1.0) < 1e-12


# ── fidelity ─────────────────────────────────────────────────────────────

def test_fidelity_examples():
    assert fidelity(ZERO, ZERO) == 1
    assert fidelity(ZERO, x_basis().states[0]) == pytest.approx(0.5, abs=1e-15)
    for theta in (0.3, 1.1, math.pi):
        phased = PureState(1, np.exp(1j * theta) * ZERO.amplitudes)
        assert fidelity(ZERO, phased) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="qubit-count mismatch"):
        fidelity(ZERO, PureState(2, [1, 0, 0, 0]))


def test_fidelity_symmetric_and_bounded(rng):
    for _ in range(30):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        fab, fba = fidelity(a, b), fidelity(b, a)
        assert fab == pytest.approx(fba, abs=1e-12)
        assert 0.0 <= fab <= 1.0


# ── unitaries ────────────────────────────────────────────────────────────

def test_unitarity_enforced():
    with pytest.raises(ValueError):
        SingleQubitUnitary("bad", [[1, 0], [0, 2]])


def test_pauli_actions():
    xp, xm = x_basis().states
    assert fidelity(apply_unitary(ZERO, SIGMA_X, 0), ONE) == pytest.approx(1.0)
    assert fidelity(apply_unitary(xp, SIGMA_Z, 0), xm) == pytest.approx(1.0)


def test_sigma_z_sigma_x_action():
    # sigma_z sigma_x (a|0> + b|1>) = b|0> - a|1>, i.e. -b|0> + a|1> up to sign
    state = PureState(1, [0.6, 0.8])
    out = apply_unitary(state, SIGMA_Z_SIGMA_X, 0)
    np.testing.assert_allclose(out.amplitudes, [0.8, -0.6], atol=1e-15)
    assert fidelity(out, PureState(1, [-0.8, 0.6])) == pytest.approx(1.0)


def test_correction_product_names():
    assert SIGMA_X_SIGMA_Z.name == "XZ"
    assert SIGMA_Z_SIGMA_X.name == "ZX"
    assert (IDENTITY @ SIGMA_X).name == "X"
    np.testing.assert_allclose(SIGMA_X_SIGMA_Z.matrix, [[0, -1], [1, 0]])


def test_unitary_preserves_norm_on_random_states(rng):
    gates = (IDENTITY, SIGMA_X, SIGMA_Z, SIGMA_X_SIGMA_Z, SIGMA_Z_SIGMA_X)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        state = random_state(rng, k)
        gate = gates[int(rng.integers(0, len(gates)))]
        target = int(rng.integers(0, k))
        out = apply_unitary(state, gate, target)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_pauli_involution(rng):
    for _ in range(10):
        k = int(rng.integers(1, 4))
        state = random_state(rng, k)
        target = int(rng.integers(0, k))
        back = apply_unitary(apply_unitary(state, SIGMA_X, target), SIGMA_X, target)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_apply_unitary_target_out_of_range():
    with pytest.raises(ValueError):
        apply_unitary(PureState(2, [1, 0, 0, 0]), SIGMA_X, 2)
