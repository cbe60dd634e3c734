import numpy as np
import pytest

from qsts import InputQubit, haar_sample


def generic_haar(rng: np.random.Generator, min_weight: float = 0.05) -> InputQubit:
    """Bloch-uniform input away from the poles (|alpha|, |beta| > min_weight)."""
    while True:
        qubit = haar_sample(rng)
        if abs(qubit.alpha) > min_weight and abs(qubit.beta) > min_weight:
            return qubit


def assert_run_matches_oracle(run, oracle_rows, atol: float = 1e-12) -> None:
    """Branch-for-branch comparison of an engine run with the brute-force oracle."""
    assert len(run.branches) == len(oracle_rows)
    for branch, (alice, helpers, prob, state) in zip(run.branches, oracle_rows):
        assert branch.alice_label == alice
        assert branch.helper_labels == tuple(helpers)
        assert abs(branch.probability - prob) <= atol
        if state is None:
            assert branch.receiver_state is None
        else:
            assert branch.receiver_state is not None
            np.testing.assert_allclose(branch.receiver_state.amplitudes, state, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def exact_haar_rate(compiled) -> float:
    """Haar average of sum_j P_j F_j over Bloch-uniform inputs.

    For branch operators K_j = C_j M_j it is sum_j (|tr K_j|^2 + tr K_j^dagger
    K_j)/6, the average-fidelity identity of Horodecki et al., PRA 60, 1888
    (1999).
    """
    kraus = compiled.operators
    traces = np.trace(kraus, axis1=1, axis2=2)
    return float((np.sum(np.abs(traces) ** 2) + np.sum(np.abs(kraus) ** 2)) / 6.0)


def exact_success(compiled, rtol: float = 1e-9) -> float:
    """Input-independent success probability of a compiled instrument.

    A branch transfers every input exactly when K_j is proportional to the
    identity, and then occurs with probability tr(K_j^dagger K_j)/2 whatever
    the input; the sum runs over those branches.  ``rtol`` bounds the
    off-identity part of K_j relative to its largest entry.
    """
    total = 0.0
    for kraus in compiled.operators:
        off_identity = kraus - np.trace(kraus) / 2 * np.eye(2)
        if np.abs(off_identity).max() <= rtol * np.abs(kraus).max():
            total += float(np.sum(np.abs(kraus) ** 2)) / 2
    return total
