"""Dense state-vector algebra for small qubit registers.

Bit-ordering convention used throughout the package: qubit 0 is the leftmost
symbol in ket notation and the most significant bit of the amplitude index.
For a three-qubit register, |011> lives at amplitude index 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10          # unit-norm tolerance on constructed states
UNITARY_ATOL = 1e-12       # entrywise tolerance for U†U = I
ZERO_NORM_THRESHOLD = 1e-14  # joint-branch probability below which a branch is dead


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalised pure state of ``num_qubits`` qubits, stored densely.

    ``amplitudes[i]`` multiplies the computational ket whose bits are the
    binary digits of ``i``, most significant bit first (qubit 0).  Instances
    are immutable: the amplitude array is copied on construction and frozen,
    so states can be shared freely between threads.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("a state needs at least one qubit")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape[0] != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubit(s), got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = np.vdot(amps, amps).real
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalised: |psi|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def _fresh_state(num_qubits: int, amplitudes: np.ndarray) -> PureState:
    """Wrap a freshly computed, already-normalised amplitude array.

    Hot-path constructor for results whose normalisation holds by
    construction (unitary action, tensor products, measurement residues);
    the public ``PureState`` constructor validates, this one only freezes.
    """
    amplitudes.flags.writeable = False
    state = object.__new__(PureState)
    object.__setattr__(state, "num_qubits", num_qubits)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


@dataclass(frozen=True)
class InputQubit:
    """The qubit to be shared: alpha|0> + beta|1> with |alpha|^2+|beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        a, b = complex(self.alpha), complex(self.beta)
        if not all(math.isfinite(x) for x in (a.real, a.imag, b.real, b.imag)):
            raise ValueError("amplitudes must be finite")
        try:
            weight = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:  # a finite amplitude whose square is no double
            weight = math.inf
        if abs(weight - 1.0) > NORM_ATOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {weight!r}, expected 1")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def as_state(self) -> PureState:
        return PureState(1, np.array([self.alpha, self.beta]))


@dataclass(frozen=True, eq=False)
class SingleQubitUnitary:
    """A named 2x2 unitary; the receiver's corrections are built from these."""

    name: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(mat.conj().T @ mat - np.eye(2)).max() > UNITARY_ATOL:
            raise ValueError(f"matrix {self.name!r} is not unitary")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __matmul__(self, other: "SingleQubitUnitary") -> "SingleQubitUnitary":
        name = (self.name + other.name).replace("I", "") or "I"
        return SingleQubitUnitary(name, self.matrix @ other.matrix)


IDENTITY = SingleQubitUnitary("I", np.eye(2))
SIGMA_X = SingleQubitUnitary("X", np.array([[0.0, 1.0], [1.0, 0.0]]))
SIGMA_Z = SingleQubitUnitary("Z", np.array([[1.0, 0.0], [0.0, -1.0]]))
SIGMA_X_SIGMA_Z = SIGMA_X @ SIGMA_Z  # applies Z first, then X
SIGMA_Z_SIGMA_X = SIGMA_Z @ SIGMA_X  # applies X first, then Z


def tensor(a: PureState, b: PureState) -> PureState:
    """Composite state a ⊗ b; ``a``'s qubits become the leftmost ones."""
    return _fresh_state(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 — insensitive to a global phase of either argument."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit-count mismatch: {a.num_qubits} vs {b.num_qubits}")
    return min(abs(complex(np.vdot(a.amplitudes, b.amplitudes))) ** 2, 1.0)


def apply_unitary(state: PureState, gate: SingleQubitUnitary, target: int) -> PureState:
    """Apply ``gate`` to qubit ``target``, identity on the rest."""
    k = state.num_qubits
    if not 0 <= target < k:
        raise ValueError(f"target {target} out of range for {k} qubit(s)")
    if k == 1:
        return _fresh_state(1, gate.matrix @ state.amplitudes)
    psi = state.amplitudes.reshape((2,) * k)
    psi = np.moveaxis(np.tensordot(gate.matrix, psi, axes=([1], [target])), 0, target)
    return _fresh_state(k, np.ascontiguousarray(psi).reshape(-1))
