"""Basis families: orthonormality, completeness, limits, concurrence."""

import cmath
import math

import numpy as np
import pytest

from qsts import (
    BELL_LABELS,
    GHZ_LABELS,
    BasisSet,
    PureState,
    channel_bell,
    channel_ghz,
    fidelity,
    generalized_bell_basis,
    generalized_ghz_basis,
    generalized_pair_basis,
    pair_anchors,
    x_basis,
)

S2 = 1.0 / math.sqrt(2.0)

WEIGHT_GRID = [
    r * cmath.exp(1j * phase)
    for r in (0.0, 0.1, 0.5, 1.0, 2.0, 10.0)
    for phase in (0.0, math.pi / 4, math.pi / 2, math.pi)
]


def gram(basis):
    stack = np.vstack([s.amplitudes for s in basis.states])
    return stack.conj() @ stack.T


def projector_sum(basis):
    dim = 1 << basis.subspace_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for s in basis.states:
        total += np.outer(s.amplitudes, s.amplitudes.conj())
    return total


def concurrence_spin_flip(state: PureState) -> float:
    # pure-state spin-flip concurrence |<psi| sigma_y x sigma_y |psi*>|
    sy = np.array([[0, -1j], [1j, 0]])
    flipped = np.kron(sy, sy) @ state.amplitudes.conj()
    return abs(state.amplitudes.conj() @ flipped)


# ── generalized Bell family ──────────────────────────────────────────────

def test_bell_weight_one_is_standard():
    basis = generalized_bell_basis(1)
    assert basis.labels == BELL_LABELS
    np.testing.assert_allclose(basis.states[0].amplitudes, [S2, 0, 0, S2], atol=1e-15)
    np.testing.assert_allclose(basis.states[2].amplitudes, [0, S2, S2, 0], atol=1e-15)


def test_bell_weight_zero_degenerates_to_products():
    basis = generalized_bell_basis(0)
    np.testing.assert_allclose(basis.states[0].amplitudes, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(basis.states[1].amplitudes, [0, 0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(gram(basis), np.eye(4), atol=1e-10)


def test_bell_half_weight_orthonormal_and_complete():
    basis = generalized_bell_basis(0.5)
    np.testing.assert_allclose(gram(basis), np.eye(4), atol=1e-10)
    np.testing.assert_allclose(projector_sum(basis), np.eye(4), atol=1e-10)


@pytest.mark.parametrize("m", WEIGHT_GRID)
def test_bell_family_orthonormal_complete_on_grid(m):
    basis = generalized_bell_basis(m)
    np.testing.assert_allclose(gram(basis), np.eye(4), atol=1e-10)
    np.testing.assert_allclose(projector_sum(basis), np.eye(4), atol=1e-10)


@pytest.mark.parametrize("m", [0.0, 0.1, 0.5, 1.0, 2.0, 10.0])
def test_bell_concurrence_matches_spin_flip(m):
    expected = 2.0 * abs(m) / (1.0 + m * m)
    for state in generalized_bell_basis(m).states:
        assert concurrence_spin_flip(state) == pytest.approx(expected, abs=1e-10)


# ── generalized GHZ-type family ──────────────────────────────────────────

def test_ghz_weight_one_is_standard():
    basis = generalized_ghz_basis(1)
    assert basis.labels == GHZ_LABELS
    np.testing.assert_allclose(basis.states[0].amplitudes[[0, 7]], [S2, S2], atol=1e-15)
    assert np.count_nonzero(np.abs(basis.states[0].amplitudes) > 1e-15) == 2


def test_ghz_weight_zero_limit():
    basis = generalized_ghz_basis(0)
    by_label = dict(zip(basis.labels, basis.states))
    hplus = np.zeros(8)
    hplus[0b100] = 1
    np.testing.assert_allclose(by_label["HPlus"].amplitudes, hplus, atol=1e-15)
    hminus = np.zeros(8)
    hminus[0b011] = -1
    np.testing.assert_allclose(by_label["HMinus"].amplitudes, hminus, atol=1e-15)


def test_ghz_anchor_structure():
    # plus states weight their anchor with 1 and its complement with m
    m = 0.25 + 0.5j
    basis = generalized_ghz_basis(m)
    f = 1.0 / math.sqrt(1.0 + abs(m) ** 2)
    for state, (anchor, is_minus) in zip(basis.states, pair_anchors(3)):
        idx = int("".join(map(str, anchor)), 2)
        comp = 7 - idx
        if is_minus:
            assert state.amplitudes[idx] == pytest.approx(f * m.conjugate())
            assert state.amplitudes[comp] == pytest.approx(-f)
        else:
            assert state.amplitudes[idx] == pytest.approx(f)
            assert state.amplitudes[comp] == pytest.approx(f * m)


@pytest.mark.parametrize("m", WEIGHT_GRID)
def test_ghz_family_orthonormal_complete_on_grid(m):
    basis = generalized_ghz_basis(m)
    np.testing.assert_allclose(gram(basis), np.eye(8), atol=1e-10)
    np.testing.assert_allclose(projector_sum(basis), np.eye(8), atol=1e-10)


# ── many-qubit paired family ─────────────────────────────────────────────

@pytest.mark.parametrize("k", [3, 4, 5])
def test_pair_basis_orthonormal_complete(k):
    basis = generalized_pair_basis(k, 0.7)
    np.testing.assert_allclose(gram(basis), np.eye(1 << k), atol=1e-10)
    np.testing.assert_allclose(projector_sum(basis), np.eye(1 << k), atol=1e-10)


def test_pair_basis_reduces_to_ghz_family():
    a = generalized_pair_basis(3, 0.3)
    b = generalized_ghz_basis(0.3)
    assert a.labels == b.labels
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_allclose(sa.amplitudes, sb.amplitudes, atol=1e-15)


def test_pair_basis_bounds():
    with pytest.raises(ValueError):
        generalized_pair_basis(2, 0.5)


def test_qubit_counts_must_be_integers():
    # int() would truncate these to a 3-qubit basis and channel
    with pytest.raises(ValueError, match="num_qubits must be an integer, got 3.5"):
        generalized_pair_basis(3.5, 0.5)
    with pytest.raises(ValueError, match="num_qubits must be an integer, got 3.5"):
        channel_ghz(0.5, 3.5)
    assert generalized_pair_basis(np.int64(4), 0.5).subspace_qubits == 4
    assert channel_ghz(0.5, 4.0).num_qubits == 4


# ── X basis and channels ─────────────────────────────────────────────────

def test_x_basis():
    basis = x_basis()
    xp, xm = basis.states
    assert abs(np.vdot(xp.amplitudes, xm.amplitudes)) < 1e-15
    assert fidelity(xp, PureState(1, [1, 0])) == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(projector_sum(basis), np.eye(2), atol=1e-12)


def test_channel_ghz_examples():
    np.testing.assert_allclose(channel_ghz(1).amplitudes[[0, 7]], [S2, S2], atol=1e-15)
    np.testing.assert_allclose(channel_ghz(0).amplitudes, np.eye(8)[0], atol=1e-15)
    chan = channel_ghz(2)
    assert chan.amplitudes[0] == pytest.approx(1 / math.sqrt(5))
    assert chan.amplitudes[7] == pytest.approx(2 / math.sqrt(5))


def test_channel_ghz_matches_basis_state_at_weight_one():
    np.testing.assert_allclose(
        channel_ghz(1).amplitudes, generalized_ghz_basis(1).states[0].amplitudes, atol=1e-15
    )


def test_channel_bell_examples():
    np.testing.assert_allclose(channel_bell(1).amplitudes, [S2, 0, 0, S2], atol=1e-15)
    np.testing.assert_allclose(channel_bell(0).amplitudes, [1, 0, 0, 0], atol=1e-15)
    for n in (0.3, 0.8, 1.5 + 0.2j):
        np.testing.assert_allclose(
            channel_bell(n).amplitudes, generalized_bell_basis(n).states[0].amplitudes
        )


def test_basis_set_rejects_non_orthonormal():
    duplicated = (PureState(1, [1, 0]), PureState(1, [1, 0]))
    with pytest.raises(ValueError):
        BasisSet(("A", "B"), duplicated, 1)
