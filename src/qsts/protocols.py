"""Protocol runners: each protocol compiled to a 2x2 branch instrument.

Two base protocols are implemented, plus their many-party extensions:

* ``run_protocol1`` — the input qubit is shared over a three-party GHZ-type
  channel of weight n; Alice measures her two qubits in the weight-m Bell
  family, the helper X-measures, the receiver applies a Pauli correction.
* ``run_protocol2`` — two Bell-type channels of weights n1 (to Bob) and n2
  (to Charlie); Alice measures her three qubits in the weight-m GHZ family.

``compile_protocol`` turns a parameter set into one 2x2 operator per joint
outcome.  Every runner enumerates all branches exactly (no sampling) from
them, recording per branch the outcome labels, joint probability, the
receiver's corrected state and its fidelity with the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .bases import (
    BELL_LABELS,
    X_LABELS,
    channel_bell,
    channel_ghz,
    generalized_bell_basis,
    generalized_ghz_basis,  # noqa: F401
    generalized_pair_basis,
    pair_anchors,
    pair_labels,
    x_basis,
)
# ``measure``, ``tensor``, ``fidelity`` and ``generalized_ghz_basis`` are no
# longer called here; they stay bound because perfbench/spans.py patches each
# layer at the names its callers bind.
from .measurement import measure  # noqa: F401
from .states import (
    IDENTITY,
    SIGMA_X,
    SIGMA_X_SIGMA_Z,
    SIGMA_Z,
    SIGMA_Z_SIGMA_X,
    ZERO_NORM_THRESHOLD,
    InputQubit,
    PureState,
    SingleQubitUnitary,
    _fresh_state,
    apply_unitary,
    fidelity,  # noqa: F401
    tensor,  # noqa: F401
)

#: Branches at or above this fidelity count as exact transfers.
SUCCESS_FIDELITY = 1.0 - 1e-9


class DegenerateChannelError(ValueError):
    """An m-strategy rule would divide by a vanishing channel weight."""


# Receiver corrections keyed on (Alice outcome, helper X outcome).  Matrix
# products read left to right, rightmost factor applied first.
TABLE1_CORRECTIONS: dict[tuple[str, str], SingleQubitUnitary] = {
    ("PhiPlus", "XPlus"): IDENTITY,
    ("PhiPlus", "XMinus"): SIGMA_Z,
    ("PhiMinus", "XPlus"): SIGMA_Z,
    ("PhiMinus", "XMinus"): IDENTITY,
    ("PsiPlus", "XPlus"): SIGMA_X,
    ("PsiPlus", "XMinus"): SIGMA_X_SIGMA_Z,
    ("PsiMinus", "XPlus"): SIGMA_Z_SIGMA_X,
    ("PsiMinus", "XMinus"): SIGMA_X,
}

TABLE2_CORRECTIONS: dict[tuple[str, str], SingleQubitUnitary] = {
    ("GHZPlus", "XPlus"): IDENTITY,
    ("GHZPlus", "XMinus"): SIGMA_Z,
    ("GHZMinus", "XPlus"): SIGMA_Z,
    ("GHZMinus", "XMinus"): IDENTITY,
    ("GPlus", "XPlus"): IDENTITY,
    ("GPlus", "XMinus"): SIGMA_Z,
    ("GMinus", "XPlus"): SIGMA_Z,
    ("GMinus", "XMinus"): IDENTITY,
    ("HPlus", "XPlus"): SIGMA_X,
    ("HPlus", "XMinus"): SIGMA_X_SIGMA_Z,
    ("HMinus", "XPlus"): SIGMA_X_SIGMA_Z,
    ("HMinus", "XMinus"): SIGMA_X,
    ("ZPlus", "XPlus"): SIGMA_X,
    ("ZPlus", "XMinus"): SIGMA_Z_SIGMA_X,
    ("ZMinus", "XPlus"): SIGMA_X_SIGMA_Z,
    ("ZMinus", "XMinus"): SIGMA_X,
}

# Receiver correction for the many-party runners, keyed on
# (relative-sign flip needed, bit flip needed).
_PAULI_BY_FLAGS = {
    (False, False): IDENTITY,
    (False, True): SIGMA_X,
    (True, False): SIGMA_Z,
    (True, True): SIGMA_Z_SIGMA_X,
}


@dataclass(frozen=True, eq=False)
class BranchRecord:
    """One joint outcome: labels, probability, and the receiver's final qubit.

    ``receiver_state`` is the receiver's qubit after the correction, and
    None on dead branches, whose probability is below
    ``ZERO_NORM_THRESHOLD``.  The qubit before the correction is
    ``correction.matrix.conj().T`` applied to it.  ``classical_bits`` counts
    the classical communication needed to close this branch.
    """

    alice_label: str
    helper_labels: tuple[str, ...]
    probability: float
    receiver_state: PureState | None
    fidelity: float
    correction: SingleQubitUnitary
    classical_bits: int


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Complete branch-by-branch record of one protocol execution."""

    protocol: str
    source: InputQubit
    params: dict
    receiver: str
    branches: tuple[BranchRecord, ...]

    @property
    def success_probability(self) -> float:
        return sum(b.probability for b in self.branches if b.fidelity > SUCCESS_FIDELITY)

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


# ── m-strategies ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class MStrategy:
    """A named rule fixing the basis weight m from the channel weights.

    ``solo_target`` is the single outcome driven to fidelity 1 for complex
    channel weights (single-channel protocol only); with real weights the
    outcomes pair up and ``paired_targets`` apply.
    """

    name: str
    protocol: str  # "p1" | "p2"
    solo_target: str | None
    paired_targets: tuple[str, ...]


STRATEGIES: dict[str, MStrategy] = {
    s.name: s
    for s in (
        MStrategy("phi-plus", "p1", "PhiPlus", ("PhiPlus", "PsiMinus")),
        MStrategy("phi-minus", "p1", "PhiMinus", ("PhiMinus", "PsiPlus")),
        MStrategy("psi-plus", "p1", "PsiPlus", ("PhiMinus", "PsiPlus")),
        MStrategy("psi-minus", "p1", "PsiMinus", ("PhiPlus", "PsiMinus")),
        MStrategy("ghz-plus", "p2", None, ("GHZPlus", "HPlus")),
        MStrategy("h-plus", "p2", None, ("GHZPlus", "HPlus")),
        MStrategy("ghz-minus", "p2", None, ("GHZMinus", "HMinus")),
        MStrategy("h-minus", "p2", None, ("GHZMinus", "HMinus")),
        MStrategy("z-plus", "p2", None, ("ZPlus", "GPlus")),
        MStrategy("g-plus", "p2", None, ("ZPlus", "GPlus")),
        MStrategy("z-minus", "p2", None, ("ZMinus", "GMinus")),
        MStrategy("g-minus", "p2", None, ("ZMinus", "GMinus")),
    )
}


def _resolve_strategy(strategy: MStrategy | str) -> MStrategy:
    if isinstance(strategy, MStrategy):
        return strategy
    try:
        return STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None


def choose_m(
    strategy: MStrategy | str,
    *,
    n: complex | float | None = None,
    n1: complex | float | None = None,
    n2: complex | float | None = None,
    ns: Sequence[complex | float] | None = None,
) -> complex:
    """Resolve the basis weight mandated by a named strategy.

    Single-channel rules take ``n``; two-channel rules take ``n1``/``n2`` or,
    for the product rules of the many-party extension, the full sequence
    ``ns``.  Conjugations are applied literally: a rule written m* = 1/n
    yields conj(1/n).
    """
    s = _resolve_strategy(strategy)
    try:
        if s.protocol == "p1":
            if n is None:
                raise ValueError(f"strategy {s.name!r} needs the channel weight n")
            n = complex(n)
            if s.name == "phi-plus":
                return (1.0 / n).conjugate()
            if s.name == "phi-minus":
                return n
            if s.name == "psi-plus":
                return n.conjugate()
            return 1.0 / n  # psi-minus

        if ns is None:
            if n1 is None or n2 is None:
                raise ValueError(f"strategy {s.name!r} needs channel weights n1 and n2")
            ns = (n1, n2)
        weights = tuple(complex(x) for x in ns)
        product = reduce(mul, weights, complex(1.0))
        if s.name in ("ghz-plus", "h-plus"):
            return (1.0 / product).conjugate()
        if s.name in ("ghz-minus", "h-minus"):
            return product
        if len(weights) != 2:
            raise ValueError(f"strategy {s.name!r} applies to exactly two channels")
        first, second = weights
        if s.name in ("z-plus", "g-plus"):
            return (first / second).conjugate()
        return second / first  # z-minus / g-minus
    except ZeroDivisionError:
        raise DegenerateChannelError(
            f"strategy {s.name!r} is undefined for a vanishing channel weight"
        ) from None


def strategy_targets(strategy: MStrategy | str, *, real: bool = True) -> frozenset[str]:
    """Alice outcomes driven to fidelity 1 by a strategy.

    Single-channel strategies hit one outcome for complex weights and a pair
    for real weights; two-channel strategies always hit their pair.
    """
    s = _resolve_strategy(strategy)
    if s.protocol == "p1" and not real:
        return frozenset((s.solo_target,))
    return frozenset(s.paired_targets)


def nparty_bell_targets(strategy: MStrategy | str, num_parties: int) -> frozenset[str]:
    """Outcome labels targeted by a product rule in the Bell-channel extension.

    Generalises the all-zero / leading-one anchor pairs; at three parties
    these are exactly the labels of ``strategy_targets``.
    """
    s = _resolve_strategy(strategy)
    if s.name not in ("ghz-plus", "h-plus", "ghz-minus", "h-minus"):
        raise ValueError(f"strategy {s.name!r} has no many-party generalisation")
    minus = s.name.endswith("minus")
    labels = []
    anchors_wanted = {(0,) * num_parties, (1,) + (0,) * (num_parties - 1)}
    for label, (anchor, is_minus) in zip(pair_labels(num_parties), pair_anchors(num_parties)):
        if anchor in anchors_wanted and is_minus == minus:
            labels.append(label)
    return frozenset(labels)


# ── compiled branch instruments ─────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class CompiledProtocol:
    """A protocol at fixed weights, as a linear instrument on the input qubit.

    Branches run over Alice's outcomes in basis order, then over the
    helpers' X outcomes in party order, the first helper varying slowest.
    ``operators[j]`` is the 2x2 operator K_j = C_j M_j taking the input
    (alpha, beta) to branch j's unnormalised corrected receiver qubit: M_j
    is the measurement residue and C_j = ``corrections[j]`` a Pauli product
    with entries 0 and +-1, so K_j is a signed row permutation of M_j.
    Branch j occurs with probability |K_j psi|^2 (bitwise equal to
    |M_j psi|^2), and sum_j K_j^dagger K_j = I.
    """

    alice_labels: tuple[str, ...]
    helper_labels: tuple[tuple[str, ...], ...]
    corrections: tuple[SingleQubitUnitary, ...]
    classical_bits: int
    operators: np.ndarray


@lru_cache(maxsize=64)
def _layout(protocol: str, num_parties: int, receiver: int):
    """The weight-independent part: labels, corrections and classical bits.

    The corrections are the rules the runners' docstrings state.
    """
    ghz_family = protocol in ("p1", "nparty-ghz")
    alice = BELL_LABELS if ghz_family else pair_labels(num_parties)
    anchors = dict(zip(pair_labels(num_parties), pair_anchors(num_parties)))

    def correct(alice_label: str, helper_labels: tuple[str, ...]) -> SingleQubitUnitary:
        odd_parity = helper_labels.count("XMinus") % 2 == 1
        if ghz_family:
            return TABLE1_CORRECTIONS[(alice_label, "XMinus" if odd_parity else "XPlus")]
        if protocol == "p2":
            return TABLE2_CORRECTIONS[(alice_label, helper_labels[0])]
        anchor, is_minus = anchors[alice_label]
        return _PAULI_BY_FLAGS[(odd_parity ^ is_minus, bool(anchor[0] ^ anchor[receiver]))]

    helpers = list(product(X_LABELS, repeat=num_parties - 2))
    branches = [(a, h) for a in alice for h in helpers]
    corrections = tuple(correct(a, h) for a, h in branches)
    matrices = np.stack([c.matrix for c in corrections])
    matrices.flags.writeable = False
    bits = num_parties if ghz_family else 2 * num_parties - 2  # Alice's, one per helper
    return (tuple(a for a, _ in branches), tuple(h for _, h in branches),
            corrections, bits, matrices)


@lru_cache(maxsize=16)
def compile_protocol(
    protocol: str,
    weights: tuple[complex, ...],
    m: complex,
    num_parties: int,
    receiver: int,
) -> CompiledProtocol:
    """Contract a protocol's channel with every joint measurement outcome once.

    ``weights`` is (n,) for the GHZ-type channel of "p1" and "nparty-ghz",
    and one weight per party for the Bell-type channels of "p2" and
    "nparty-bell".  Parties are 1..num_parties-1; ``receiver`` receives and
    the others help.  ``compile_params`` validates the arguments.
    """
    alice_labels, helper_labels, corrections, bits, matrices = _layout(
        protocol, num_parties, receiver)
    if protocol in ("p1", "nparty-ghz"):
        basis = generalized_bell_basis(m)
        # register (Alice's channel qubit, party 1, ..., party N-1)
        channel = channel_ghz(weights[0], num_qubits=num_parties).amplitudes.reshape(2, -1)
    else:
        basis = generalized_pair_basis(num_parties, m)
        # Alice's halves against the parties' halves: each Bell-type channel
        # pairs equal bits, so the product channel is diagonal
        channel = np.diag(reduce(np.kron, [channel_bell(w).amplitudes[::3] for w in weights]))
    outcomes = len(basis.states)
    bras = np.conj([s.amplitudes for s in basis.states]).reshape(2 * outcomes, -1)
    # axes (Alice outcome, input bit, party 1, ..., party N-1), then
    # (Alice outcome, helper bits..., receiver bit, input bit)
    residues = (bras @ channel).reshape((outcomes, 2) + (2,) * (num_parties - 1))
    residues = np.moveaxis(residues, (1, 1 + receiver), (-1, -2))
    x_bras = np.conj([s.amplitudes for s in x_basis().states])
    for helper in range(num_parties - 2):
        # replace this helper's bit by its X outcome, keeping the axis order
        residues = x_bras @ residues.reshape(outcomes << helper, 2, -1)
    operators = matrices @ residues.reshape(-1, 2, 2)
    operators.flags.writeable = False
    return CompiledProtocol(alice_labels, helper_labels, corrections, bits, operators)


def compile_params(protocol: str, params: Mapping) -> tuple[CompiledProtocol, dict, str]:
    """Validate a runner parameter set and compile it.

    ``params`` holds a runner's arguments by name: {n, m} for "p1", {n1, n2,
    m} for "p2", {parties, n, m} for "nparty-ghz" and {ns, m} for
    "nparty-bell", plus an optional ``receiver`` ("bob" or "charlie", default
    charlie) for the first two and ``receiver_index`` (1..N-1, default N-1)
    for the others; any other receiver raises ``ValueError``.  Every runner
    and the Monte-Carlo estimator validate through here.  Returns the
    instrument, the weights as ``ProtocolRun`` records them, and the
    receiver's name.
    """
    m = complex(params["m"])
    if protocol in ("p1", "p2"):
        receiver = params.get("receiver", "charlie")
        if receiver not in ("bob", "charlie"):
            raise ValueError(f"receiver must be 'bob' or 'charlie', got {receiver!r}")
        charlie = receiver == "charlie"
        if protocol == "p1":
            n = complex(params["n"])
            compiled = compile_protocol("p1", (n,), m, 3, 2 if charlie else 1)
            return compiled, {"n": n, "m": m}, receiver
        # a Bob receiver swaps the (channel, party) pairs
        n1, n2 = complex(params["n1"]), complex(params["n2"])
        compiled = compile_protocol("p2", (n1, n2) if charlie else (n2, n1), m, 3, 2)
        return compiled, {"n1": n1, "n2": n2, "m": m}, receiver

    if protocol == "nparty-ghz":
        num_parties = int(params["parties"])
        if not 3 <= num_parties <= 10:
            raise ValueError("num_parties must be between 3 and 10")
        weights = (complex(params["n"]),)
        run_params = {"n": weights[0], "m": m, "parties": num_parties}
    elif protocol == "nparty-bell":
        weights = tuple(complex(x) for x in params["ns"])
        num_parties = len(weights) + 1
        if not 3 <= num_parties <= 6:
            raise ValueError("need 2..5 channel weights (3..6 parties)")
        run_params = {"ns": weights, "m": m}
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    index = params.get("receiver_index")
    r = num_parties - 1 if index is None else int(index)
    if not 1 <= r <= num_parties - 1:
        raise ValueError(f"receiver_index {r} out of range for {num_parties} parties")
    return compile_protocol(protocol, weights, m, num_parties, r), run_params, f"party{r}"


def _branches(compiled: CompiledProtocol, source: InputQubit) -> tuple[BranchRecord, ...]:
    """Apply the instrument to the input: every branch from one batched product."""
    psi = np.array((source.alpha, source.beta))
    outputs = compiled.operators @ psi  # (branch, amplitude)
    probabilities = (outputs.real ** 2 + outputs.imag ** 2).sum(axis=1)
    live = probabilities >= ZERO_NORM_THRESHOLD
    states = outputs / np.sqrt(np.where(live, probabilities, 1.0))[:, None]
    states.flags.writeable = False
    overlaps = states @ psi.conj()
    fidelities = np.where(live, np.minimum(overlaps.real ** 2 + overlaps.imag ** 2, 1.0), 0.0)
    bits = compiled.classical_bits
    return tuple(
        BranchRecord(alice, helpers, p, _fresh_state(1, state) if alive else None, f,
                     correction, bits)
        for alice, helpers, p, f, correction, alive, state in zip(
            compiled.alice_labels, compiled.helper_labels, probabilities.tolist(),
            fidelities.tolist(), compiled.corrections, live.tolist(), states)
    )


# ── runners ──────────────────────────────────────────────────────────────

def _run(protocol: str, source: InputQubit, params: Mapping) -> ProtocolRun:
    compiled, run_params, receiver = compile_params(protocol, params)
    return ProtocolRun(protocol, source, run_params, receiver, _branches(compiled, source))


def run_protocol1(
    source: InputQubit,
    n: complex | float,
    m: complex | float,
    receiver: str = "charlie",
) -> ProtocolRun:
    """Share ``source`` over the weight-n GHZ-type channel.

    Joint register order: (input, Alice's channel qubit, Bob, Charlie).
    Alice measures qubits 0-1 in the weight-m Bell family, the helper
    X-measures, and the receiver applies the frozen correction.  The channel
    is symmetric in Bob and Charlie, so choosing Bob as receiver simply makes
    Charlie the helper.
    """
    return _run("p1", source, {"n": n, "m": m, "receiver": receiver})


def run_protocol2(
    source: InputQubit,
    n1: complex | float,
    n2: complex | float,
    m: complex | float,
    receiver: str = "charlie",
) -> ProtocolRun:
    """Share ``source`` over two Bell-type channels (n1 to Bob, n2 to Charlie).

    Joint register order: (input, Alice-1, Bob, Alice-2, Charlie).  Alice
    measures qubits 0, 1, 3 in the weight-m GHZ family, ordering her kets
    (input, helper channel, receiver channel); a Bob receiver is handled by
    swapping the (channel, party) pairs, which leaves the pipeline identical.
    """
    return _run("p2", source, {"n1": n1, "n2": n2, "m": m, "receiver": receiver})


def run_nparty_ghz(
    source: InputQubit,
    num_parties: int,
    n: complex | float,
    m: complex | float,
    receiver_index: int | None = None,
) -> ProtocolRun:
    """Share ``source`` over a weight-n GHZ-type channel among N-1 parties.

    Parties are indexed 1..N-1; all but the receiver X-measure, and the
    receiver's correction is the base table entry at the parity of the
    helpers' XMinus outcomes.  Reduces to ``run_protocol1`` at N = 3.
    """
    return _run("nparty-ghz", source, {"parties": num_parties, "n": n, "m": m,
                                       "receiver_index": receiver_index})


def run_nparty_bell(
    source: InputQubit,
    ns: Sequence[complex | float],
    m: complex | float,
    receiver_index: int | None = None,
) -> ProtocolRun:
    """Share ``source`` over N-1 Bell-type channels, one per party.

    Alice measures her N qubits (input plus one half of each channel, in
    party order) in the weight-m paired family.  The receiver's correction
    follows from the measured pair's anchor bits: a bit flip when the input
    anchor bit differs from the receiver's, a sign flip at odd helper parity
    xor a minus-family outcome.  Reduces to ``run_protocol2`` at N = 3.
    """
    return _run("nparty-bell", source, {"ns": ns, "m": m, "receiver_index": receiver_index})


# ── verification against the frozen outcome tables ──────────────────────

@dataclass(frozen=True)
class TableRowCheck:
    """Result of checking one outcome row against its expected receiver state.

    ``fidelity_to_expected`` is None when the branch cannot occur for the
    given input (zero probability), in which case the row passes vacuously.
    """

    alice_label: str
    helper_label: str
    fidelity_to_expected: float | None
    ok: bool


def _check_rows(
    run: ProtocolRun,
    expected: Mapping[str, tuple[complex, complex]],
    tolerance: float,
    corrupt_row: tuple[str, str] | None,
) -> list[TableRowCheck]:
    checks = []
    for branch in run.branches:
        helper_label = branch.helper_labels[0]
        target = np.array(expected[branch.alice_label], dtype=np.complex128)
        norm = float(np.linalg.norm(target))
        if branch.receiver_state is None or norm * norm <= ZERO_NORM_THRESHOLD:
            checks.append(TableRowCheck(branch.alice_label, helper_label, None, True))
            continue
        state = branch.receiver_state
        if corrupt_row == (branch.alice_label, helper_label):
            state = apply_unitary(state, SIGMA_X, 0)  # deliberate negative control
        fid = min(abs(np.vdot(target / norm, state.amplitudes)) ** 2, 1.0)
        checks.append(TableRowCheck(branch.alice_label, helper_label, fid, fid >= 1.0 - tolerance))
    return checks


def verify_table1(
    n: complex | float,
    m: complex | float,
    source: InputQubit,
    tolerance: float = 1e-10,
    corrupt_row: tuple[str, str] | None = None,
) -> list[TableRowCheck]:
    """Check all 8 outcome rows of the GHZ-channel protocol.

    The expected receiver states (up to normalisation) are
    PhiPlus: a|0> + m*n b|1>, PhiMinus: m a|0> + n b|1>,
    PsiPlus: n a|0> + m* b|1>, PsiMinus: m n a|0> + b|1>.
    """
    n, m = complex(n), complex(m)
    a, b = source.alpha, source.beta
    mc = m.conjugate()
    expected = {
        "PhiPlus": (a, mc * n * b),
        "PhiMinus": (m * a, n * b),
        "PsiPlus": (n * a, mc * b),
        "PsiMinus": (m * n * a, b),
    }
    return _check_rows(run_protocol1(source, n, m), expected, tolerance, corrupt_row)


def verify_table2(
    n1: complex | float,
    n2: complex | float,
    m: complex | float,
    source: InputQubit,
    tolerance: float = 1e-10,
    corrupt_row: tuple[str, str] | None = None,
) -> list[TableRowCheck]:
    """Check all 16 outcome rows of the two-Bell-channel protocol."""
    n1, n2, m = complex(n1), complex(n2), complex(m)
    a, b = source.alpha, source.beta
    mc = m.conjugate()
    expected = {
        "GHZPlus": (a, mc * n1 * n2 * b),
        "GHZMinus": (m * a, n1 * n2 * b),
        "GPlus": (n1 * a, mc * n2 * b),
        "GMinus": (m * n1 * a, n2 * b),
        "HPlus": (mc * n1 * n2 * a, b),
        "HMinus": (n1 * n2 * a, m * b),
        "ZPlus": (mc * n2 * a, n1 * b),
        "ZMinus": (n2 * a, m * n1 * b),
    }
    return _check_rows(run_protocol2(source, n1, n2, m), expected, tolerance, corrupt_row)


# ── derived diagnostics ──────────────────────────────────────────────────

def bob_bit_withheld_state(run: ProtocolRun, alice_label: str) -> np.ndarray:
    """Receiver's 2x2 density matrix when the helper's X outcome is withheld.

    The receiver corrects as if the helper had reported XPlus; the result is
    the probability-weighted mixture over the helper's actual outcomes,
    conditioned on Alice's outcome.
    """
    branches = [b for b in run.branches if b.alice_label == alice_label]
    if not branches:
        raise ValueError(f"unknown Alice outcome {alice_label!r}")
    if any(len(b.helper_labels) != 1 for b in branches):
        raise ValueError("defined for single-helper protocols only")
    total = sum(b.probability for b in branches)
    if total < ZERO_NORM_THRESHOLD:
        raise ValueError(f"Alice outcome {alice_label!r} has zero probability")
    plus_correction = next(b.correction for b in branches if b.helper_labels[0] == "XPlus")
    rho = np.zeros((2, 2), dtype=np.complex128)
    for branch in branches:
        if branch.receiver_state is None:
            continue
        raw = branch.correction.matrix.conj().T @ branch.receiver_state.amplitudes
        vec = plus_correction.matrix @ raw
        rho += (branch.probability / total) * np.outer(vec, vec.conj())
    return rho
