"""Projective measurement of a labelled basis on a subset of qubits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import BasisSet
from .states import ZERO_NORM_THRESHOLD, PureState
from .states import _fresh_state


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One branch of a projective measurement.

    ``post_state`` lives on the unmeasured qubits and is None when the
    branch probability falls below the dead-branch threshold.
    """

    label: str
    probability: float
    post_state: PureState | None


def measure(state: PureState, targets: Sequence[int], basis: BasisSet) -> list[MeasurementOutcome]:
    """Project ``targets`` onto every basis state, in basis order.

    The i-th target qubit is matched with the i-th ket symbol of the basis
    states (the engine rearranges non-contiguous targets internally); the
    unmeasured qubits keep their original relative order in the post-states.
    Zero-probability outcomes are retained with an absent post-state so
    callers can assert completeness; measuring the full register also leaves
    no post-state, only probabilities.
    """
    k = state.num_qubits
    t = len(targets)
    if basis.subspace_qubits != t:
        raise ValueError(f"basis spans {basis.subspace_qubits} qubit(s), got {t} target(s)")
    if len(set(targets)) != t:
        raise ValueError("target qubits must be distinct")
    if any(not 0 <= q < k for q in targets):
        raise ValueError(f"targets {list(targets)} out of range for {k} qubit(s)")

    rest = k - t
    psi = state.amplitudes.reshape((2,) * k)
    if tuple(targets) != tuple(range(t)):
        psi = np.moveaxis(psi, targets, range(t))
    psi = np.ascontiguousarray(psi).reshape(1 << t, 1 << rest)
    outcomes = []
    for label, bstate in zip(basis.labels, basis.states):
        residual = bstate.amplitudes.conj() @ psi
        prob = float(np.vdot(residual, residual).real)
        if prob < ZERO_NORM_THRESHOLD or rest == 0:
            outcomes.append(MeasurementOutcome(label, prob, None))
        else:
            outcomes.append(
                MeasurementOutcome(label, prob, _fresh_state(rest, residual / math.sqrt(prob)))
            )
    return outcomes
