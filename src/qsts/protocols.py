"""Protocol runners: two channel families compiled to diagonal branch instruments.

The compile knows two channel families: "ghz", one GHZ-type channel of
weight n shared by every party, with Alice measuring her input and channel
qubits in the weight-m Bell family; and "bell", one Bell-type channel per
party, with Alice measuring her input and her half of every channel in the
weight-m paired family.  The helpers X-measure, and the receiver applies a
frozen table's correction at (Alice outcome, helper parity) or the bell
family's anchor rule.  Every measured and channel ket pairs an anchor s
with its complement, so each corrected branch operator is diag(a_j, b_j):
``_layout`` places the terms once per (family, N, receiver, table), and every
``compile_protocol`` call fills them from the weights and checks completeness.
``run_protocol1`` is the ghz family at three parties, ``run_nparty_ghz`` at
3..10; ``run_protocol2`` is the bell family at three parties (n1 to Bob, n2
to Charlie) named by TABLE2, ``run_nparty_bell`` at 3..6.  Each runner
enumerates every branch exactly (no sampling) from the compiled diagonal,
recording per branch the outcome labels, joint probability, the receiver's
corrected state and its fidelity with the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, repeat
from typing import Mapping, Sequence

import numpy as np

from .bases import BELL_LABELS, X_LABELS, pair_anchors, pair_labels
# The basis and channel constructors, ``measure``, ``tensor`` and ``fidelity``
# are no longer called here; they stay bound because perfbench/spans.py
# patches each layer at the names its callers bind.
from .bases import (  # noqa: F401
    channel_bell,
    channel_ghz,
    generalized_bell_basis,
    generalized_ghz_basis,
    generalized_pair_basis,
    x_basis,
)
from .measurement import measure  # noqa: F401
# The m-strategies, p2's channel order, the party caps and the parameter
# check are defined in ``rules``, which imports no numpy; they stay public
# names of this module as well.
from .rules import (  # noqa: F401
    PARTY_CAPS,
    PRODUCT_RULES,
    STRATEGIES,
    DegenerateChannelError,
    MStrategy,
    _check_parties,
    _resolve_strategy,
    _weight_norm,
    check_params,
    choose_m,
    p2_channels,
)
from .states import (
    IDENTITY,
    NORM_ATOL,
    SIGMA_X,
    SIGMA_X_SIGMA_Z,
    SIGMA_Z,
    SIGMA_Z_SIGMA_X,
    ZERO_NORM_THRESHOLD,
    InputQubit,
    PureState,
    SingleQubitUnitary,
    _wrap_state,
    apply_unitary,
    fidelity,  # noqa: F401
    tensor,  # noqa: F401
)

#: Branches at or above this fidelity count as exact transfers.
SUCCESS_FIDELITY = 1.0 - 1e-9


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

#: The frozen tables by name.  A compile naming one takes each correction
#: from it at (Alice outcome, helper parity).  "p2" keeps TABLE2 because on
#: three rows the bell family's anchor rule gives ZX where it has XZ.
FROZEN_TABLES = {"TABLE1": TABLE1_CORRECTIONS, "TABLE2": TABLE2_CORRECTIONS}

# The bell family's anchor rule, keyed on (relative-sign flip needed, bit
# flip needed).
_PAULI_BY_FLAGS = {
    (False, False): IDENTITY,
    (False, True): SIGMA_X,
    (True, False): SIGMA_Z,
    (True, True): SIGMA_Z_SIGMA_X,
}


@dataclass(frozen=True, eq=False, init=False)
class BranchRecord:
    """One joint outcome: labels, probability, and the receiver's final qubit.

    ``receiver_state`` is the receiver's qubit after the correction, and
    None on dead branches, whose probability is below
    ``ZERO_NORM_THRESHOLD``.  Its amplitudes are a read-only row view: the
    live branches of one run share a single (B, 2) array over an immutable
    ``bytes`` copy, made once per run, so numpy refuses to make a row or the
    shared array (``amplitudes.base``) writeable again; copy the amplitudes
    to change them.  The qubit before the correction is
    ``correction.matrix.conj().T`` applied to it.  ``classical_bits`` counts
    the classical communication needed to close this branch.

    ``__init__`` is written by hand because every run builds one record per
    branch: it stores each field with one write into the instance dict,
    where the generated frozen ``__init__`` makes one ``object.__setattr__``
    call per field, at more than twice the cost.  It is still the only
    constructor (``dataclasses.replace`` calls it too), and the record stays
    frozen: setting or deleting a field raises ``FrozenInstanceError``.
    """

    alice_label: str
    helper_labels: tuple[str, ...]
    probability: float
    receiver_state: PureState | None
    fidelity: float
    correction: SingleQubitUnitary
    classical_bits: int

    def __init__(self, alice_label: str, helper_labels: tuple[str, ...], probability: float,
                 receiver_state: PureState | None, fidelity: float,
                 correction: SingleQubitUnitary, classical_bits: int) -> None:
        fields = self.__dict__
        fields["alice_label"] = alice_label
        fields["helper_labels"] = helper_labels
        fields["probability"] = probability
        fields["receiver_state"] = receiver_state
        fields["fidelity"] = fidelity
        fields["correction"] = correction
        fields["classical_bits"] = classical_bits


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
        return sum(b.probability for b in self.branches if b.fidelity >= SUCCESS_FIDELITY)

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


# ── m-strategy targets ───────────────────────────────────────────────────

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
    if s.name not in PRODUCT_RULES:
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
    ``diagonal[j]`` = (a_j, b_j) gives branch j's measurement residue
    followed by its Pauli correction ``corrections[j]`` as diag(a_j, b_j),
    taking the input (alpha, beta) to the unnormalised receiver qubit
    (a_j alpha, b_j beta); each entry is a bra coefficient times channel
    amplitudes times +-2^(-(N-2)/2).  Branch j occurs with probability
    |a_j alpha|^2 + |b_j beta|^2, is exact for every input when a_j = b_j,
    and sum_j |a_j|^2 = sum_j |b_j|^2 = 1 to within ``NORM_ATOL``.
    """

    alice_labels: tuple[str, ...]
    helper_labels: tuple[tuple[str, ...], ...]
    corrections: tuple[SingleQubitUnitary, ...]
    classical_bits: int
    diagonal: np.ndarray


@lru_cache(maxsize=64)  # every (family, N, receiver, table) a runner reaches: 59
def _layout(family: str, num_parties: int, receiver: int, table: str | None):
    """The weight-independent part: labels, corrections, classical bits, terms.

    The corrections are the named frozen table at (Alice outcome, helper
    parity), or without a table the bell family's anchor rule.  Each branch
    has two terms, Alice's anchor s and its complement; input column c holds
    term c ^ s_0.  Per column, ``gather`` is the term's index in the
    compile's table of bra coefficient times channel amplitude, and ``sign``
    the correction's entry at (c, the term's receiver bit), which must be
    +-1, times the helpers' X sign (-1)^(sum_h x_h s_h).
    """
    _check_parties(family, num_parties, receiver)
    channels = 1 if family == "ghz" else num_parties - 1
    if family == "ghz":
        # Bell pairs anchored at 00 and 01 on (input, channel qubit), the
        # channel bit copied to every party
        alice = BELL_LABELS
        anchors = tuple(((0,) + (a,) * (num_parties - 1), minus)
                        for a in (0, 1) for minus in (False, True))
    else:
        alice, anchors = pair_labels(num_parties), pair_anchors(num_parties)
    if table is not None and set(FROZEN_TABLES.get(table, ())) != set(product(alice, X_LABELS)):
        raise ValueError(f"table {table!r} does not fit the {family} family at N = {num_parties}")
    branches = list(product(range(len(alice)), product((0, 1), repeat=num_parties - 2)))
    # the correction depends on Alice's outcome and the helpers' parity only
    if table is None:
        by_parity = [[_PAULI_BY_FLAGS[(bool(parity) ^ is_minus, bool(s[0] ^ s[receiver]))]
                      for parity in (0, 1)] for s, is_minus in anchors]
    else:
        by_parity = [[FROZEN_TABLES[table][(label, x)] for x in X_LABELS] for label in alice]
    corrections = [by_parity[outcome][sum(xs) % 2] for outcome, xs in branches]
    # axes (branch j, input column c, ...)
    anchor_bits, minus = map(np.array, zip(*anchors))
    outcome, xs = map(np.array, zip(*branches))
    term = anchor_bits[outcome][:, :1] ^ np.arange(2)
    bits = anchor_bits[outcome][:, None, :] ^ term[..., None]
    entry = np.stack([c.matrix.real for c in corrections])[
        np.arange(len(branches))[:, None], np.arange(2), bits[..., receiver]]
    if not (np.abs(entry) == 1.0).all():
        raise ValueError(f"corrections at receiver {receiver} do not map each term to its column")
    # bra slot (f, f m*, f m, -f)[2 is_minus + term], then the channel bits
    slot = 2 * minus[outcome][:, None] + term
    gather = (slot << channels) + bits[..., 1:1 + channels] @ (1 << np.arange(channels)[::-1])
    helpers = [p for p in range(1, num_parties) if p != receiver]
    sign = entry * (1 - 2 * ((xs[:, None, :] * bits[..., helpers]).sum(axis=-1) % 2))
    gather.flags.writeable = sign.flags.writeable = False
    classical = len(alice).bit_length() - 1 + num_parties - 2  # Alice's, one per helper
    # one tuple per helper outcome, shared by every Alice outcome
    helper_labels = tuple(product(X_LABELS, repeat=num_parties - 2)) * len(alice)
    return (tuple(alice[a] for a, _ in branches), helper_labels,
            tuple(corrections), classical, gather, sign)


def compile_protocol(
    family: str,
    weights: tuple[complex, ...],
    m: complex,
    num_parties: int,
    receiver: int,
    table: str | None,
) -> CompiledProtocol:
    """Compile a channel family at fixed weights into its branch diagonals.

    ``weights`` is (n,) for the "ghz" family and one weight per party for
    the "bell" family.  Parties are 1..num_parties-1; ``receiver`` receives
    and the others help.  ``table`` names the ``FROZEN_TABLES`` entry giving
    the corrections ("TABLE1" for ghz); None gives the bell family's anchor
    rule.  Each call compiles afresh from the cached layout.  Arguments that
    no layout fits (see ``PARTY_CAPS``), weights whose count does not fit
    the family at ``num_parties``, a non-finite weight, or max(|sum |a_j|^2
    - 1|, |sum |b_j|^2 - 1|) > ``NORM_ATOL`` raise ``ValueError``.
    """
    alice_labels, helper_labels, corrections, bits, gather, sign = _layout(
        family, num_parties, receiver, table)
    channels = 1 if family == "ghz" else num_parties - 1
    if len(weights) != channels:
        raise ValueError(f"the {family} family at N = {num_parties} takes {channels} "
                         f"channel weight(s), got {len(weights)}")
    f = _weight_norm(m)
    channel = np.ones(1, dtype=np.complex128)
    for w in weights:
        g = _weight_norm(w)
        channel = np.multiply.outer(channel, (g, g * w)).ravel()
    bras = np.array((f, f * m.conjugate(), f * m, -f))
    products = np.multiply.outer(bras, channel).ravel()
    for _ in range(num_parties - 2):
        products *= 1.0 / math.sqrt(2.0)  # each helper's X bra, one factor at a time
    diagonal = products[gather] * sign
    residual = float(np.abs((np.abs(diagonal) ** 2).sum(axis=0) - 1.0).max())
    if not residual <= NORM_ATOL:
        raise ValueError(f"instrument not complete: max|sum |K_jj|^2 - 1| = {residual!r}")
    diagonal.flags.writeable = False
    return CompiledProtocol(alice_labels, helper_labels, corrections, bits, diagonal)


def compile_params(protocol: str, params: Mapping) -> tuple[CompiledProtocol, dict, str]:
    """Validate a runner parameter set (``rules.check_params``) and compile it.

    ``params`` holds a runner's arguments, named as its row of
    ``rules.PRESETS`` names them.  Every runner and the Monte-Carlo
    estimator validate through here.  Returns the instrument, the weights
    as ``ProtocolRun`` records them, and the receiver's name.
    """
    arguments, run_params, receiver = check_params(protocol, params)
    return compile_protocol(*arguments), run_params, receiver


def _branches(compiled: CompiledProtocol, source: InputQubit) -> tuple[BranchRecord, ...]:
    """Apply the instrument to the input: every branch from one elementwise product.

    The records are built in C-level passes over the columns, so no branch
    pays for a generator frame or a flag read.  Each receiver state is a row
    of one read-only array over a ``bytes`` copy of the run's normalised
    outputs: numpy refuses to make a row or that array writeable again.
    """
    psi = np.array((source.alpha, source.beta))
    outputs = compiled.diagonal * psi  # (branch, amplitude)
    probabilities = (outputs.real ** 2 + outputs.imag ** 2).sum(axis=1)
    live = probabilities >= ZERO_NORM_THRESHOLD
    states = outputs / np.sqrt(np.where(live, probabilities, 1.0))[:, None]
    overlaps = states @ psi.conj()
    fidelities = np.where(live, np.minimum(overlaps.real ** 2 + overlaps.imag ** 2, 1.0), 0.0)
    rows = np.ndarray(states.shape, states.dtype, states.tobytes())  # one copy per run
    receivers = list(map(_wrap_state, repeat(1), rows))
    if False in live.tolist():  # dead branches, which are rare, hold no state
        for dead in np.flatnonzero(~live).tolist():
            receivers[dead] = None
    return tuple(map(BranchRecord, compiled.alice_labels, compiled.helper_labels,
                     probabilities.tolist(), receivers, fidelities.tolist(),
                     compiled.corrections, repeat(compiled.classical_bits)))


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
    # a NaN, negative or >= 1 tolerance would make every row fail or pass
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be a finite number in [0, 1), got {tolerance!r}")
    # each Alice outcome's expected state, normalised once; None if it vanishes
    targets = {}
    for label, amplitudes in expected.items():
        target = np.array(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(target))
        targets[label] = None if norm * norm <= ZERO_NORM_THRESHOLD else target / norm
    checks = []
    for branch in run.branches:
        helper_label = branch.helper_labels[0]
        target = targets[branch.alice_label]
        if branch.receiver_state is None or target is None:
            checks.append(TableRowCheck(branch.alice_label, helper_label, None, True))
            continue
        state = branch.receiver_state
        if corrupt_row == (branch.alice_label, helper_label):
            state = apply_unitary(state, SIGMA_X, 0)  # deliberate negative control
        fid = min(abs(np.vdot(target, state.amplitudes)) ** 2, 1.0)
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
    PsiPlus: n a|0> + m* b|1>, PsiMinus: m n a|0> + b|1>, with each weight's
    pair (1, w) scaled by 1/sqrt(1 + |w|^2) as in the compile, so no product
    overflows.  ``tolerance`` must lie in [0, 1); else ``ValueError``.
    """
    n, m = complex(n), complex(m)
    a, b = source.alpha, source.beta
    f, g = _weight_norm(m), _weight_norm(n)
    fm, fmc, gn = f * m, f * m.conjugate(), g * n
    expected = {
        "PhiPlus": (f * g * a, fmc * gn * b),
        "PhiMinus": (fm * g * a, f * gn * b),
        "PsiPlus": (f * gn * a, fmc * g * b),
        "PsiMinus": (fm * gn * a, f * g * b),
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
    """Check all 16 outcome rows of the two-Bell-channel protocol.

    The expected states are scaled as in ``verify_table1``.  ``tolerance``
    must lie in [0, 1); anything else raises ``ValueError``.
    """
    n1, n2, m = complex(n1), complex(n2), complex(m)
    a, b = source.alpha, source.beta
    f, g1, g2 = _weight_norm(m), _weight_norm(n1), _weight_norm(n2)
    fm, fmc, gn1, gn2 = f * m, f * m.conjugate(), g1 * n1, g2 * n2
    expected = {
        "GHZPlus": (f * g1 * g2 * a, fmc * gn1 * gn2 * b),
        "GHZMinus": (fm * g1 * g2 * a, f * gn1 * gn2 * b),
        "GPlus": (f * gn1 * g2 * a, fmc * g1 * gn2 * b),
        "GMinus": (fm * gn1 * g2 * a, f * g1 * gn2 * b),
        "HPlus": (fmc * gn1 * gn2 * a, f * g1 * g2 * b),
        "HMinus": (f * gn1 * gn2 * a, fm * g1 * g2 * b),
        "ZPlus": (fmc * g1 * gn2 * a, f * gn1 * g2 * b),
        "ZMinus": (f * g1 * gn2 * a, fm * gn1 * g2 * b),
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
