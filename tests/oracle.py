"""Brute-force projector reference, independent of the package's engine.

Joint states are assembled by explicit per-index bit arithmetic, branch
residues by full-dimension bra sums over every amplitude, and corrections by
plain 2x2 matrix products hard-coded here.  Nothing is shared with the fast
path except the outcome labels, so any bookkeeping bug in the engine shows
up as a mismatch.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
XZ2 = X2 @ Z2
ZX2 = Z2 @ X2

# (Alice outcome, helper X outcome) -> correction, duplicated from the
# protocol definition on purpose.
ORACLE_TABLE1 = {
    ("PhiPlus", "XPlus"): I2, ("PhiPlus", "XMinus"): Z2,
    ("PhiMinus", "XPlus"): Z2, ("PhiMinus", "XMinus"): I2,
    ("PsiPlus", "XPlus"): X2, ("PsiPlus", "XMinus"): XZ2,
    ("PsiMinus", "XPlus"): ZX2, ("PsiMinus", "XMinus"): X2,
}

ORACLE_TABLE2 = {
    ("GHZPlus", "XPlus"): I2, ("GHZPlus", "XMinus"): Z2,
    ("GHZMinus", "XPlus"): Z2, ("GHZMinus", "XMinus"): I2,
    ("GPlus", "XPlus"): I2, ("GPlus", "XMinus"): Z2,
    ("GMinus", "XPlus"): Z2, ("GMinus", "XMinus"): I2,
    ("HPlus", "XPlus"): X2, ("HPlus", "XMinus"): XZ2,
    ("HMinus", "XPlus"): XZ2, ("HMinus", "XMinus"): X2,
    ("ZPlus", "XPlus"): X2, ("ZPlus", "XMinus"): ZX2,
    ("ZMinus", "XPlus"): XZ2, ("ZMinus", "XMinus"): X2,
}


def bit_at(index: int, qubit: int, width: int) -> int:
    return (index >> (width - 1 - qubit)) & 1


def oracle_anchors(num_parties: int) -> dict[str, tuple[tuple[int, ...], bool]]:
    """label -> (anchor bits, minus family) of the paired family."""
    anchors = {}
    for s in range(0, 1 << num_parties, 2):
        anchor = tuple(bit_at(s, q, num_parties) for q in range(num_parties))
        if num_parties == 3:
            stem = {0: "GHZ", 2: "G", 4: "H", 6: "Z"}[s]
        else:
            stem = "S" + format(s, f"0{num_parties}b")
        anchors[stem + "Plus"] = (anchor, False)
        anchors[stem + "Minus"] = (anchor, True)
    return anchors


def oracle_anchor_rule(anchor, is_minus: bool, parity: int, receiver: int) -> np.ndarray:
    """The Bell-channel extension's correction for a measured anchor.

    A sign flip at odd helper parity xor a minus-family outcome, and a bit
    flip where the input's anchor bit differs from the receiver's.
    """
    sign_flip = bool(parity) ^ is_minus
    bit_flip = bool(anchor[0] ^ anchor[receiver])
    return {
        (False, False): I2, (False, True): X2,
        (True, False): Z2, (True, True): ZX2,
    }[(sign_flip, bit_flip)]


def bell_patterns(m: complex) -> dict[str, dict[tuple[int, int], complex]]:
    f = 1.0 / math.sqrt(1.0 + abs(m) ** 2)
    mc = complex(m).conjugate()
    return {
        "PhiPlus": {(0, 0): f, (1, 1): f * m},
        "PhiMinus": {(0, 0): f * mc, (1, 1): -f},
        "PsiPlus": {(0, 1): f, (1, 0): f * m},
        "PsiMinus": {(0, 1): f * mc, (1, 0): -f},
    }


GHZ_ANCHORS = {
    "GHZ": (0, 0, 0),
    "G": (0, 1, 0),
    "H": (1, 0, 0),
    "Z": (1, 1, 0),
}


def paired_patterns(num_qubits: int, m: complex):
    """label -> {bit pattern: amplitude} for the paired family, in order."""
    f = 1.0 / math.sqrt(1.0 + abs(m) ** 2)
    mc = complex(m).conjugate()
    out = {}
    order = []
    for s in range(0, 1 << num_qubits, 2):
        anchor = tuple(bit_at(s, q, num_qubits) for q in range(num_qubits))
        comp = tuple(1 - b for b in anchor)
        if num_qubits == 3:
            stem = {0: "GHZ", 2: "G", 4: "H", 6: "Z"}[s]
        else:
            stem = "S" + format(s, f"0{num_qubits}b")
        out[stem + "Plus"] = {anchor: f, comp: f * m}
        out[stem + "Minus"] = {anchor: f * mc, comp: -f}
        order += [stem + "Plus", stem + "Minus"]
    return out, order


def x_amplitude(label: str, bit: int) -> float:
    if label == "XPlus":
        return SQRT_HALF
    return SQRT_HALF if bit == 0 else -SQRT_HALF


def _branches(psi, width, alice_qubits, alice_patterns, alice_order,
              helper_qubits, receiver_qubit, correction_for):
    """Enumerate (alice label, helper labels, probability, corrected state)."""
    results = []
    for alice_label in alice_order:
        pattern = alice_patterns[alice_label]
        for helper_combo in product(("XPlus", "XMinus"), repeat=len(helper_qubits)):
            residue = np.zeros(2, dtype=complex)
            for idx in range(1 << width):
                bits = tuple(bit_at(idx, q, width) for q in range(width))
                a_amp = pattern.get(tuple(bits[q] for q in alice_qubits))
                if a_amp is None:
                    continue
                weight = np.conj(a_amp) * psi[idx]
                for lbl, q in zip(helper_combo, helper_qubits):
                    weight *= x_amplitude(lbl, bits[q])
                residue[bits[receiver_qubit]] += weight
            prob = float(np.sum(np.abs(residue) ** 2))
            if prob < 1e-14:
                results.append((alice_label, helper_combo, prob, None))
            else:
                corrected = correction_for(alice_label, helper_combo) @ (residue / math.sqrt(prob))
                results.append((alice_label, helper_combo, prob, corrected))
    return results


def oracle_protocol1(alpha, beta, n, m, receiver="charlie"):
    width = 4
    nf = 1.0 / math.sqrt(1.0 + abs(n) ** 2)
    psi = np.zeros(1 << width, dtype=complex)
    for idx in range(1 << width):
        bits = tuple(bit_at(idx, q, width) for q in range(width))
        inp = alpha if bits[0] == 0 else beta
        if bits[1] == bits[2] == bits[3] == 0:
            chan = nf
        elif bits[1] == bits[2] == bits[3] == 1:
            chan = nf * n
        else:
            chan = 0.0
        psi[idx] = inp * chan
    helper_q, receiver_q = (2, 3) if receiver == "charlie" else (3, 2)
    return _branches(
        psi, width, (0, 1), bell_patterns(complex(m)),
        ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"),
        (helper_q,), receiver_q,
        lambda a, h: ORACLE_TABLE1[(a, h[0])],
    )


def oracle_protocol2(alpha, beta, n1, n2, m, receiver="charlie"):
    width = 5
    if receiver == "bob":
        n1, n2 = n2, n1
    f1 = 1.0 / math.sqrt(1.0 + abs(n1) ** 2)
    f2 = 1.0 / math.sqrt(1.0 + abs(n2) ** 2)
    psi = np.zeros(1 << width, dtype=complex)
    for idx in range(1 << width):
        bits = tuple(bit_at(idx, q, width) for q in range(width))
        if bits[1] != bits[2] or bits[3] != bits[4]:
            continue
        inp = alpha if bits[0] == 0 else beta
        c1 = f1 * (n1 if bits[1] else 1.0)
        c2 = f2 * (n2 if bits[3] else 1.0)
        psi[idx] = inp * c1 * c2
    patterns, order = paired_patterns(3, complex(m))
    # Alice holds qubits 0, 1, 3 in that ket order; Bob 2, Charlie 4
    alice_patterns = {
        label: {k: v for k, v in pat.items()} for label, pat in patterns.items()
    }
    return _branches(
        psi, width, (0, 1, 3), alice_patterns, order,
        (2,), 4,
        lambda a, h: ORACLE_TABLE2[(a, h[0])],
    )


def oracle_nparty_ghz(alpha, beta, num_parties, n, m, receiver_index=None):
    width = num_parties + 1
    r = num_parties - 1 if receiver_index is None else receiver_index
    nf = 1.0 / math.sqrt(1.0 + abs(n) ** 2)
    psi = np.zeros(1 << width, dtype=complex)
    for idx in range(1 << width):
        bits = tuple(bit_at(idx, q, width) for q in range(width))
        chan_bits = bits[1:]
        if all(b == 0 for b in chan_bits):
            chan = nf
        elif all(b == 1 for b in chan_bits):
            chan = nf * n
        else:
            continue
        psi[idx] = (alpha if bits[0] == 0 else beta) * chan
    helper_qs = tuple(1 + p for p in range(1, num_parties) if p != r)

    def correct(a, helpers):
        parity = sum(lbl == "XMinus" for lbl in helpers) % 2
        return ORACLE_TABLE1[(a, "XMinus" if parity else "XPlus")]

    return _branches(
        psi, width, (0, 1), bell_patterns(complex(m)),
        ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"),
        helper_qs, 1 + r, correct,
    )


def oracle_nparty_bell(alpha, beta, ns, m, receiver_index=None):
    num_parties = len(ns) + 1
    width = 2 * num_parties - 1
    r = num_parties - 1 if receiver_index is None else receiver_index
    factors = [1.0 / math.sqrt(1.0 + abs(w) ** 2) for w in ns]
    psi = np.zeros(1 << width, dtype=complex)
    for idx in range(1 << width):
        bits = tuple(bit_at(idx, q, width) for q in range(width))
        amp = alpha if bits[0] == 0 else beta
        ok = True
        for i, (w, f) in enumerate(zip(ns, factors), start=1):
            a_bit, p_bit = bits[2 * i - 1], bits[2 * i]
            if a_bit != p_bit:
                ok = False
                break
            amp *= f * (w if a_bit else 1.0)
        if ok:
            psi[idx] = amp
    patterns, order = paired_patterns(num_parties, complex(m))
    anchors = oracle_anchors(num_parties)
    alice_qs = (0,) + tuple(2 * i - 1 for i in range(1, num_parties))
    helper_qs = tuple(2 * p for p in range(1, num_parties) if p != r)

    def correct(a, helpers):
        parity = sum(lbl == "XMinus" for lbl in helpers) % 2
        return oracle_anchor_rule(*anchors[a], parity, r)

    return _branches(psi, width, alice_qs, patterns, order, helper_qs, 2 * r, correct)
