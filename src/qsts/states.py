"""Dense state-vector algebra for small qubit registers.

Bit-ordering convention used throughout the package: qubit 0 is the leftmost
symbol in ket notation and the most significant bit of the amplitude index.
For a three-qubit register, |011> lives at amplitude index 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``InputQubit`` is defined in ``rules``, which imports no numpy; it stays a
# public name of this module.
from .rules import NORM_ATOL, InputQubit  # noqa: F401

UNITARY_ATOL = 1e-12       # entrywise tolerance for U†U = I
ZERO_NORM_THRESHOLD = 1e-14  # joint-branch probability below which a branch is dead


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalised pure state of ``num_qubits`` qubits, stored densely.

    ``amplitudes[i]`` multiplies the computational ket whose bits are the
    binary digits of ``i``, most significant bit first (qubit 0).  The
    amplitudes are read-only and nothing writeable aliases them: the public
    constructor freezes a copy that owns its data, as do ``tensor``,
    ``apply_unitary`` and ``measure``, and a run's receiver states are rows
    of one array over an immutable ``bytes`` copy, whose base numpy refuses
    to make writeable.  So states can be shared freely; copy the amplitudes
    to change them.  The package starts no threads.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("a state needs at least one qubit")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).flatten()  # a copy, no view
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

    def __reduce__(self):
        # unpickle through the constructor, which freezes its own copy
        return PureState, (self.num_qubits, self.amplitudes)


def _wrap_state(num_qubits: int, amplitudes: np.ndarray) -> PureState:
    """Wrap a read-only, already-normalised amplitude array as it is.

    Hot-path constructor for results whose normalisation holds by
    construction (unitary action, tensor products, measurement residues,
    a run's receiver rows): no check, no copy and no flag read.  Like
    ``BranchRecord.__init__`` it writes both fields into the instance dict,
    where the frozen dataclass's own ``__init__`` would call
    ``object.__setattr__`` once per field.
    """
    state = object.__new__(PureState)
    fields = state.__dict__
    fields["num_qubits"] = num_qubits
    fields["amplitudes"] = amplitudes
    return state


def _fresh_state(num_qubits: int, amplitudes: np.ndarray) -> PureState:
    """Freeze a freshly computed amplitude array that owns its data, and wrap it.

    A view would leave its base writeable, and a write through the base
    would change the state.
    """
    amplitudes.flags.writeable = False
    return _wrap_state(num_qubits, amplitudes)


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
    # ``kron`` returns a view of its product; freeze a copy that owns its data
    return _fresh_state(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes).copy())


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
    return _fresh_state(k, psi.flatten())
