"""Parameterised measurement bases and partially entangled channel states.

All basis families carry a complex weight: at weight 1 they reduce to the
familiar maximally entangled Bell / GHZ sets, at weight 0 they degenerate to
product kets.  Outcome labels are stable strings so protocol tables and
serialised runs can be keyed on them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import NORM_ATOL, PureState

BELL_LABELS = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")
GHZ_LABELS = ("GHZPlus", "GHZMinus", "GPlus", "GMinus",
              "HPlus", "HMinus", "ZPlus", "ZMinus")
X_LABELS = ("XPlus", "XMinus")

_GHZ_STEMS = ("GHZ", "G", "H", "Z")


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


def _weight_norm(m: complex) -> float:
    """1/sqrt(1 + |m|^2) without overflow; every weight passes through here."""
    if not cmath.isfinite(m):
        raise ValueError(f"weights must be finite, got {m!r}")
    return 1.0 / math.hypot(1.0, m.real, m.imag)


def generalized_bell_basis(m: complex | float) -> BasisSet:
    """The four weight-m two-qubit states, in the order of BELL_LABELS.

    PhiPlus = M(|00> + m|11>), PhiMinus = M(m*|00> - |11>),
    PsiPlus = M(|01> + m|10>), PsiMinus = M(m*|01> - |10>),
    with M = 1/sqrt(1+|m|^2).  m = 1 gives the standard Bell basis.
    """
    m = complex(m)
    f = _weight_norm(m)
    mc = m.conjugate()
    vecs = np.zeros((4, 4), dtype=np.complex128)
    vecs[0, 0], vecs[0, 3] = f, f * m        # |00> + m|11>
    vecs[1, 0], vecs[1, 3] = f * mc, -f      # m*|00> - |11>
    vecs[2, 1], vecs[2, 2] = f, f * m        # |01> + m|10>
    vecs[3, 1], vecs[3, 2] = f * mc, -f      # m*|01> - |10>
    return BasisSet(BELL_LABELS, tuple(PureState(2, v) for v in vecs), 2)


def pair_anchors(num_qubits: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """(anchor bits, is_minus) for every state of the paired family, in order.

    The anchor is the ket carrying coefficient 1 (plus states) or m* (minus
    states); its bitwise complement carries m respectively -1.  Anchors run
    over the bit strings with last bit 0, ascending, so at three qubits the
    ordering is exactly that of ``generalized_ghz_basis``.
    """
    out = []
    for s in range(0, 1 << num_qubits, 2):
        bits = tuple((s >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits))
        out.append((bits, False))
        out.append((bits, True))
    return tuple(out)


def pair_labels(num_qubits: int) -> tuple[str, ...]:
    """Outcome labels of the paired family; named stems at 3 qubits."""
    labels = []
    for s in range(0, 1 << num_qubits, 2):
        if num_qubits == 3:
            stem = _GHZ_STEMS[s // 2]
        else:
            stem = "S" + format(s, f"0{num_qubits}b")
        labels.append(stem + "Plus")
        labels.append(stem + "Minus")
    return tuple(labels)


def _pair_basis(num_qubits: int, m: complex) -> BasisSet:
    f = _weight_norm(m)
    mc = m.conjugate()
    dim = 1 << num_qubits
    states = []
    for s in range(0, dim, 2):
        comp = dim - 1 - s
        plus = np.zeros(dim, dtype=np.complex128)
        plus[s], plus[comp] = f, f * m
        minus = np.zeros(dim, dtype=np.complex128)
        minus[s], minus[comp] = f * mc, -f
        states.append(PureState(num_qubits, plus))
        states.append(PureState(num_qubits, minus))
    return BasisSet(pair_labels(num_qubits), tuple(states), num_qubits)


def generalized_ghz_basis(m: complex | float) -> BasisSet:
    """The eight weight-m three-qubit states, in the order of GHZ_LABELS.

    GHZPlus = M(|000> + m|111>), ..., ZMinus = M(m*|110> - |001>).
    m = 1 gives the standard GHZ-type basis.
    """
    return _pair_basis(3, complex(m))


def generalized_pair_basis(num_qubits: int, m: complex | float) -> BasisSet:
    """Weight-m paired family on ``num_qubits`` >= 3 qubits.

    2^(k-1) orthonormal pairs M(|s> + m|s̄>), M(m*|s> - |s̄>) with s running
    over the even bit strings and s̄ the bitwise complement; reduces to
    ``generalized_ghz_basis`` at three qubits.
    """
    if not 3 <= num_qubits <= 10:
        raise ValueError("paired family supported for 3..10 qubits")
    return _pair_basis(int(num_qubits), complex(m))


@lru_cache(maxsize=1)
def x_basis() -> BasisSet:
    """Single-qubit basis |X±> = (|0> ± |1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return BasisSet(X_LABELS, (PureState(1, [s, s]), PureState(1, [s, -s])), 1)


def _channel_ghz(n: complex, num_qubits: int) -> PureState:
    f = _weight_norm(n)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = f
    amps[-1] = f * n
    return PureState(num_qubits, amps)


def channel_ghz(n: complex | float, num_qubits: int = 3) -> PureState:
    """Partially entangled channel N(|0...0> + n|1...1>); maximal at n = 1."""
    if not 2 <= num_qubits <= 12:
        raise ValueError("channel supported for 2..12 qubits")
    return _channel_ghz(complex(n), int(num_qubits))


def channel_bell(n: complex | float) -> PureState:
    """Partially entangled two-qubit channel N(|00> + n|11>)."""
    return _channel_ghz(complex(n), 2)
