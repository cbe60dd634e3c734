"""The dense compile, kept as the reference for the closed-form one.

``dense_compile`` contracts the channel with every joint outcome as explicit
arrays, built from the public constructors ``generalized_bell_basis``,
``generalized_pair_basis``, ``channel_ghz``, ``channel_bell`` and
``x_basis`` (so their own checks run on every call), then applies the
receiver's correction matrices.  It derives the labels and classical bits
itself rather than reading ``protocols._layout``, and takes each correction
from the paper's table in ``oracle`` or, where the paper gives none, from
the oracle's anchor rule.
"""

from functools import reduce
from itertools import product

import numpy as np

from oracle import oracle_anchor_rule
from qsts.bases import (
    BELL_LABELS,
    X_LABELS,
    channel_bell,
    channel_ghz,
    generalized_bell_basis,
    generalized_pair_basis,
    pair_anchors,
    pair_labels,
    x_basis,
)


def dense_compile(family, weights, m, num_parties, receiver, table):
    """(Alice labels, helper labels, correction matrices, classical bits, operators).

    Takes a layout as ``rules.check_params`` hands it to
    ``protocols.compile_params`` (family, channel weights in channel order,
    m, parties, receiver index), with ``table`` in place of the preset's
    ``xz`` rows: the paper's (Alice outcome, helper outcome) table that the
    compile should reproduce (``oracle.ORACLE_TABLE1`` or ``ORACLE_TABLE2``),
    or None for the oracle's anchor rule, applied at the parity of the
    helpers' XMinus outcomes.  ``operators`` is the (B, 2, 2)
    stack of K_j = C_j M_j.
    """
    alice = BELL_LABELS if family == "ghz" else pair_labels(num_parties)
    # the anchor rule serves the bell family, whose labels are pair_labels
    anchors = dict(zip(alice, pair_anchors(num_parties))) if table is None else {}

    def correct(alice_label, helper_labels):
        parity = helper_labels.count("XMinus") % 2
        if table is not None:
            return table[(alice_label, X_LABELS[parity])]
        return oracle_anchor_rule(*anchors[alice_label], parity, receiver)

    branches = [(a, h) for a in alice for h in product(X_LABELS, repeat=num_parties - 2)]
    corrections = tuple(correct(a, h) for a, h in branches)
    bits = len(alice).bit_length() - 1 + num_parties - 2

    if family == "ghz":
        basis = generalized_bell_basis(m)
        # register (Alice's channel qubit, party 1, ..., party N-1)
        channel = channel_ghz(weights[0], num_qubits=num_parties).amplitudes.reshape(2, -1)
    else:
        basis = generalized_pair_basis(num_parties, m)
        # each Bell-type channel pairs equal bits, so the product is diagonal
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
    operators = np.stack(corrections) @ residues.reshape(-1, 2, 2)
    return (tuple(a for a, _ in branches), tuple(h for _, h in branches), corrections, bits,
            operators)
