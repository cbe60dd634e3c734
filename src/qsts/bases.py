"""Parameterised measurement bases and partially entangled channel states.

Each basis family and channel state is one construction: the pairs
M(|s> + w|s̄>), M(w*|s> - |s̄>) over anchor kets s, s̄ the bitwise complement
of s and M = 1/sqrt(1+|w|^2).  The weight-m Bell family takes the anchors 00
and 01, the paired (GHZ-type) family the even anchors, and a channel state is
the plus ket at anchor 0.  Weight 1 gives the maximally entangled Bell / GHZ
sets, weight 0 product kets.  Outcome labels are stable strings so protocol
tables and serialised runs can be keyed on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rules import _integer, _weight_norm
from .states import NORM_ATOL, PureState

BELL_LABELS = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")
GHZ_LABELS = ("GHZPlus", "GHZMinus", "GPlus", "GMinus",
              "HPlus", "HMinus", "ZPlus", "ZMinus")
X_LABELS = ("XPlus", "XMinus")


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Ordered, labelled orthonormal basis of a 2^k-dimensional subspace."""

    labels: tuple[str, ...]
    states: tuple[PureState, ...]
    subspace_qubits: int

    def __post_init__(self) -> None:
        k = self.subspace_qubits
        dim = 1 << k
        if len(self.labels) != len(self.states):
            raise ValueError("labels and states must align")
        if len(self.states) != dim:
            raise ValueError(f"a complete basis on {k} qubit(s) needs {dim} states")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be unique")
        if any(s.num_qubits != k for s in self.states):
            raise ValueError("every basis state must live on the subspace")
        stack = np.vstack([s.amplitudes for s in self.states])
        gram = stack.conj() @ stack.T
        if not np.allclose(gram, np.eye(dim), atol=NORM_ATOL):
            raise ValueError("basis states are not orthonormal")


def _paired_kets(num_qubits: int, anchors: Sequence[int], w: complex) -> np.ndarray:
    """Rows M(|s> + w|s̄>), M(w*|s> - |s̄>) for each anchor index s, in order.

    s̄ is the bitwise complement of s and M = 1/sqrt(1+|w|^2).
    """
    f = _weight_norm(w)
    plus, minus = (f, f * w), (f * w.conjugate(), -f)
    kets = np.zeros((len(anchors), 2, 1 << num_qubits), dtype=np.complex128)
    for pair, s in zip(kets, anchors):
        # index ~s = -1 - s counts from the end: the complement's index
        (pair[0, s], pair[0, ~s]), (pair[1, s], pair[1, ~s]) = plus, minus
    return kets.reshape(2 * len(anchors), -1)


def _paired_basis(labels: tuple[str, ...], num_qubits: int, anchors: Sequence[int],
                  m: complex | float) -> BasisSet:
    kets = _paired_kets(num_qubits, anchors, complex(m))
    return BasisSet(labels, tuple(PureState(num_qubits, v) for v in kets), num_qubits)


def generalized_bell_basis(m: complex | float) -> BasisSet:
    """The four weight-m two-qubit states, in the order of BELL_LABELS.

    PhiPlus = M(|00> + m|11>), PhiMinus = M(m*|00> - |11>),
    PsiPlus = M(|01> + m|10>), PsiMinus = M(m*|01> - |10>),
    with M = 1/sqrt(1+|m|^2): the pairs anchored at 00 and 01.  m = 1 gives
    the standard Bell basis.
    """
    return _paired_basis(BELL_LABELS, 2, (0, 1), m)


def pair_anchors(num_qubits: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """(anchor bits, is_minus) for every state of the paired family, in order.

    The anchor is the ket carrying coefficient 1 (plus states) or m* (minus
    states); its bitwise complement carries m respectively -1.  Anchors run
    over the bit strings with last bit 0, ascending, so at three qubits the
    ordering is exactly that of ``generalized_ghz_basis``.
    """
    return tuple((tuple(int(bit) for bit in f"{s:0{num_qubits}b}"), minus)
                 for s in range(0, 1 << num_qubits, 2) for minus in (False, True))


def pair_labels(num_qubits: int) -> tuple[str, ...]:
    """Outcome labels of the paired family: GHZ_LABELS at 3 qubits, else
    "S" + anchor bits + "Plus"/"Minus"."""
    if num_qubits == 3:
        return GHZ_LABELS
    return tuple(f"S{s:0{num_qubits}b}{sign}"
                 for s in range(0, 1 << num_qubits, 2) for sign in ("Plus", "Minus"))


def generalized_ghz_basis(m: complex | float) -> BasisSet:
    """The eight weight-m three-qubit states, in the order of GHZ_LABELS.

    GHZPlus = M(|000> + m|111>), ..., ZMinus = M(m*|110> - |001>).
    m = 1 gives the standard GHZ-type basis.
    """
    return _paired_basis(GHZ_LABELS, 3, range(0, 8, 2), m)


def generalized_pair_basis(num_qubits: int, m: complex | float) -> BasisSet:
    """Weight-m paired family on ``num_qubits`` >= 3 qubits.

    2^(k-1) orthonormal pairs M(|s> + m|s̄>), M(m*|s> - |s̄>) with s running
    over the even bit strings and s̄ the bitwise complement; reduces to
    ``generalized_ghz_basis`` at three qubits.
    """
    num_qubits = _integer(num_qubits, "num_qubits")
    if not 3 <= num_qubits <= 10:
        raise ValueError("paired family supported for 3..10 qubits")
    return _paired_basis(pair_labels(num_qubits), num_qubits, range(0, 1 << num_qubits, 2), m)


def x_basis() -> BasisSet:
    """Single-qubit basis |X±> = (|0> ± |1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return BasisSet(X_LABELS, (PureState(1, [s, s]), PureState(1, [s, -s])), 1)


def channel_ghz(n: complex | float, num_qubits: int = 3) -> PureState:
    """Partially entangled channel N(|0...0> + n|1...1>); maximal at n = 1."""
    num_qubits = _integer(num_qubits, "num_qubits")
    if not 2 <= num_qubits <= 12:
        raise ValueError("channel supported for 2..12 qubits")
    return PureState(num_qubits, _paired_kets(num_qubits, (0,), complex(n))[0])


def channel_bell(n: complex | float) -> PureState:
    """Partially entangled two-qubit channel N(|00> + n|11>)."""
    return PureState(2, _paired_kets(2, (0,), complex(n))[0])
