"""A compiled layout read over sympy symbols: each branch's exact diag(a_j, b_j).

``protocols._layout`` places both entries of every branch operator as one
term of a table, bra coefficient times channel amplitude, with a sign;
``compile_params`` fills the table with doubles.  Here it is filled with
symbols: f for the basis normalisation, g_k for channel k's, the weights
and m as given.  Each entry is then an exact monomial, so a_j = b_j is an
identity that sympy decides, not a tolerance.
"""

from __future__ import annotations

import sympy

from qsts.protocols import _layout


def _table(m, weights, num_parties: int) -> list:
    # the compile's bras (f, f m*, f m, -f), each times every channel
    # amplitude, the first channel's bit most significant, and 2^(-(N-2)/2)
    f = sympy.Symbol("f", positive=True)
    norms = sympy.symbols(f"g:{len(weights)}", positive=True)
    amplitudes = [sympy.Integer(1)]
    for g, w in zip(norms, weights):
        amplitudes = [a * term for a in amplitudes for term in (g, g * w)]
    scale = sympy.sqrt(2) ** (2 - num_parties)
    return [bra * a * scale for bra in (f, f * sympy.conjugate(m), f * m, -f)
            for a in amplitudes]


def exact_branches(layout: tuple, m, weights) -> dict[str, set[bool]]:
    """Per Alice outcome, whether a_j = b_j holds identically on its branches.

    ``layout`` is the key of ``_layout`` (family, N, receiver, XZ rows);
    ``weights`` are the channel weights in the order ``check_params`` gives
    them to the compile, and ``m`` an expression in them.
    """
    alice, _, _, _, gather, sign = _layout(*layout)
    table = _table(m, weights, layout[1])
    verdicts: dict[tuple, bool] = {}
    exact: dict[str, set[bool]] = {}
    for label, (ga, gb), (sa, sb) in zip(alice, gather.tolist(), sign.tolist()):
        key = (ga, gb, int(sa), int(sb))
        if key not in verdicts:
            verdicts[key] = sympy.expand(table[ga] * key[2] - table[gb] * key[3]) == 0
        exact.setdefault(label, set()).add(verdicts[key])
    return exact
