"""Protocol runners, strategies, correction tables, and diagnostics."""

import warnings
from itertools import product

import numpy as np
import pytest

from conftest import assert_run_matches_oracle, generic_haar
from oracle import (
    ORACLE_TABLE1,
    ORACLE_TABLE2,
    oracle_anchor_rule,
    oracle_anchors,
    oracle_nparty_bell,
    oracle_nparty_ghz,
    oracle_protocol1,
    oracle_protocol2,
)
from qsts import (
    STRATEGIES,
    X_LABELS,
    DegenerateChannelError,
    InputQubit,
    apply_unitary,
    bob_bit_withheld_state,
    channel_ghz,
    choose_m,
    fidelity,
    generalized_ghz_basis,
    measure,
    nparty_bell_targets,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
    strategy_targets,
    tensor,
    verify_table1,
    verify_table2,
)
from qsts.protocols import SUCCESS_FIDELITY, BranchRecord, ProtocolRun, compile_params
from qsts.rules import PRESETS
from qsts.states import IDENTITY, SIGMA_X

GENERIC = InputQubit(0.6, 0.8)

# Frozen from the brute-force oracle; P(alice outcome) verified by hand:
# P = (NM)^2 (|c0|^2 + |c1|^2) with the branch coefficients of the joint
# expansion, e.g. P(PhiPlus) = 0.8/1.49 * (0.36 + 0.35^2 * 0.64).
P1_FROZEN = {
    "PhiPlus": (0.23538255033557037, 0.7779562043795621),
    "PhiMinus": (0.1806174496644295, 0.9726040428061831),
    "PsiPlus": (0.21669798657718115, 0.9771655104063428),
    "PsiMinus": (0.36730201342281876, 0.8577050138868586),
}

# Frozen from the oracle for n1=0.5, n2=0.3, m=0.7, input (0.6, 0.8).
P2_FROZEN = {
    "GHZPlus": (0.1808046302567575, 0.49719890153001156),
    "GHZMinus": (0.09398436056893042, 0.6347169811320754),
    "GPlus": (0.05823483775629577, 0.8361023142509136),
    "GMinus": (0.050095437473061985, 0.9943362831858408),
    "HPlus": (0.31720657594975665, 0.7134083162388254),
    "HMinus": (0.15846314882088536, 0.7833509480882809),
    "ZPlus": (0.08663308909549901, 0.8898278332461509),
    "ZMinus": (0.05457792007881285, 0.994801444043321),
}


# ── deterministic limits ─────────────────────────────────────────────────

def test_protocol1_maximal_weights_all_branches_exact():
    run = run_protocol1(GENERIC, 1, 1)
    assert len(run.branches) == 8
    for branch in run.branches:
        assert branch.probability == pytest.approx(0.125, abs=1e-12)
        assert branch.fidelity == pytest.approx(1.0, abs=1e-12)
    assert run.success_probability == pytest.approx(1.0, abs=1e-12)


def test_protocol2_maximal_weights_all_branches_exact():
    run = run_protocol2(GENERIC, 1, 1, 1)
    assert len(run.branches) == 16
    for branch in run.branches:
        assert branch.probability == pytest.approx(1 / 16, abs=1e-12)
        assert branch.fidelity == pytest.approx(1.0, abs=1e-12)


# ── frozen branch tables ─────────────────────────────────────────────────

def test_protocol1_frozen_branch_values():
    run = run_protocol1(GENERIC, 0.5, 0.7)
    for branch in run.branches:
        prob, fid = P1_FROZEN[branch.alice_label]
        assert branch.probability == pytest.approx(prob / 2, abs=1e-12)
        assert branch.fidelity == pytest.approx(fid, abs=1e-12)
    assert run.total_probability == pytest.approx(1.0, abs=1e-12)


def test_protocol2_frozen_branch_values():
    run = run_protocol2(GENERIC, 0.5, 0.3, 0.7)
    for branch in run.branches:
        prob, fid = P2_FROZEN[branch.alice_label]
        assert branch.probability == pytest.approx(prob / 2, abs=1e-12)
        assert branch.fidelity == pytest.approx(fid, abs=1e-12)
    assert run.total_probability == pytest.approx(1.0, abs=1e-12)


def test_protocol2_raw_branch_carries_joint_expansion():
    # the GHZPlus residue on (helper, receiver) is a|00> + m* n1 n2 b|11>
    alpha, beta = GENERIC.alpha, GENERIC.beta
    n1, n2, m = 0.5, 0.3, 0.25 + 0.4j
    run = run_protocol2(GENERIC, n1, n2, m)
    branch = next(b for b in run.branches
                  if b.alice_label == "GHZPlus" and b.helper_labels == ("XPlus",))
    joint = tensor(tensor(GENERIC.as_state(), channel_ghz(n1, 2)), channel_ghz(n2, 2))
    residual = measure(joint, [0, 1, 3], generalized_ghz_basis(m))[0].post_state
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = alpha
    expected[0b11] = np.conj(m) * n1 * n2 * beta
    expected /= np.linalg.norm(expected)
    assert abs(abs(np.vdot(expected, residual.amplitudes)) - 1.0) < 1e-12
    # and the corrected XPlus branch carries the same two coefficients on one qubit
    receiver = np.array([alpha, np.conj(m) * n1 * n2 * beta])
    receiver /= np.linalg.norm(receiver)
    assert branch.fidelity == pytest.approx(
        abs(np.vdot(GENERIC.as_state().amplitudes, receiver)) ** 2, abs=1e-12
    )


# ── strategies ───────────────────────────────────────────────────────────

#: The paper's strategy table: each rule's m from the channel weights (n1 the
#: helper's, n2 the receiver's), the outcome it makes exact for a complex
#: weight (single-channel rules only) and the pair it makes exact otherwise.
STRATEGY_TABLE = {
    "phi-plus": (lambda n: (1 / n).conjugate(), "PhiPlus", {"PhiPlus", "PsiMinus"}),
    "phi-minus": (lambda n: n, "PhiMinus", {"PhiMinus", "PsiPlus"}),
    "psi-plus": (lambda n: n.conjugate(), "PsiPlus", {"PhiMinus", "PsiPlus"}),
    "psi-minus": (lambda n: 1 / n, "PsiMinus", {"PhiPlus", "PsiMinus"}),
    "ghz-plus": (lambda n1, n2: (1 / (n1 * n2)).conjugate(), None, {"GHZPlus", "HPlus"}),
    "h-plus": (lambda n1, n2: (1 / (n1 * n2)).conjugate(), None, {"GHZPlus", "HPlus"}),
    "ghz-minus": (lambda n1, n2: n1 * n2, None, {"GHZMinus", "HMinus"}),
    "h-minus": (lambda n1, n2: n1 * n2, None, {"GHZMinus", "HMinus"}),
    "z-plus": (lambda n1, n2: (n1 / n2).conjugate(), None, {"ZPlus", "GPlus"}),
    "g-plus": (lambda n1, n2: (n1 / n2).conjugate(), None, {"ZPlus", "GPlus"}),
    "z-minus": (lambda n1, n2: n2 / n1, None, {"ZMinus", "GMinus"}),
    "g-minus": (lambda n1, n2: n2 / n1, None, {"ZMinus", "GMinus"}),
}


def test_choose_m_examples():
    assert choose_m("phi-minus", n=0.5) == 0.5
    assert choose_m("phi-plus", n=0.5) == 2.0
    assert choose_m("z-minus", n1=0.5, n2=0.25) == pytest.approx(0.5)
    assert choose_m("ghz-minus", n1=0.5, n2=0.25) == pytest.approx(0.125)
    # conjugations applied literally
    n = 0.5 + 0.5j
    assert choose_m("psi-plus", n=n) == n.conjugate()
    assert choose_m("phi-plus", n=n) == (1 / n).conjugate()
    # every rule is the paper's formula exactly, with no tolerance
    for n, other in ((0.5, 0.25), (-0.3, 1.7), (0.6 + 0.3j, 0.2 - 0.9j), (2.5j, -0.4 + 0.1j)):
        for name, (rule, solo, _) in STRATEGY_TABLE.items():
            if solo is not None:
                assert choose_m(name, n=n) == rule(n), name
            else:
                assert choose_m(name, n1=n, n2=other) == rule(n, other), name
                assert choose_m(name, n1=other, n2=n) == rule(other, n), name


def test_choose_m_degenerate_channel():
    with pytest.raises(DegenerateChannelError):
        choose_m("phi-plus", n=0)
    with pytest.raises(DegenerateChannelError):
        choose_m("psi-minus", n=0)
    with pytest.raises(DegenerateChannelError):
        choose_m("z-plus", n1=0.5, n2=0)
    with pytest.raises(DegenerateChannelError):
        choose_m("ghz-plus", n1=0, n2=0.5)


@pytest.mark.parametrize("strategy, weights", [
    ("phi-plus", {"n": float("nan")}),
    ("ghz-minus", {"n1": float("inf"), "n2": 1}),
    ("z-plus", {"n1": 0.5, "n2": complex(0, float("-inf"))}),
    ("h-plus", {"ns": (0.5, float("nan"), 0.5)}),
])
def test_choose_m_refuses_a_non_finite_weight_as_such(strategy, weights):
    with pytest.raises(ValueError, match="weights must be finite"):
        choose_m(strategy, **weights)


def test_strategy_real_weight_pairing():
    assert STRATEGIES.keys() == STRATEGY_TABLE.keys()
    for name, (_, solo, pair) in STRATEGY_TABLE.items():
        assert strategy_targets(name, real=True) == pair, name
        assert strategy_targets(name, real=False) == ({solo} if solo else pair), name
    # the product rules reach the anchors with every channel bit 0, input bit either
    for name in ("ghz-plus", "h-plus", "ghz-minus", "h-minus"):
        sign = "Minus" if name.endswith("minus") else "Plus"
        assert nparty_bell_targets(name, 3) == STRATEGY_TABLE[name][2]
        for parties in range(4, 7):
            assert nparty_bell_targets(name, parties) == {
                f"S{'0' * parties}{sign}", f"S1{'0' * (parties - 1)}{sign}"}
    for name in ("phi-plus", "z-plus", "g-minus"):
        with pytest.raises(ValueError, match="has no many-party generalisation"):
            nparty_bell_targets(name, 4)


def test_protocol1_strategy_pair_hits_unity(rng):
    # m = n: exactly the PhiMinus / PsiPlus branches reach fidelity 1
    run = run_protocol1(GENERIC, 0.5, 0.5)
    for branch in run.branches:
        if branch.alice_label in ("PhiMinus", "PsiPlus"):
            assert branch.fidelity >= 1 - 1e-9
        else:
            assert branch.fidelity < 1 - 1e-6


def test_protocol1_inverse_strategy_success_probability(rng):
    # m = 1/n: the PhiPlus / PsiMinus pair succeeds with 2n^2/(1+n^2)^2 = 0.32,
    # independent of the input
    m = choose_m("phi-plus", n=0.5)
    for _ in range(5):
        run = run_protocol1(generic_haar(rng), 0.5, m)
        assert run.success_probability == pytest.approx(0.32, abs=1e-12)


def test_protocol1_complex_weight_single_target(rng):
    n = 0.6 + 0.3j
    m = choose_m("phi-plus", n=n)
    for _ in range(5):
        qubit = generic_haar(rng)
        run = run_protocol1(qubit, n, m)
        for branch in run.branches:
            if branch.alice_label == "PhiPlus":
                assert branch.fidelity >= 1 - 1e-9
            else:
                assert branch.fidelity < 1 - 1e-6


def test_protocol2_strategy_pairs(rng):
    n1, n2 = 0.5, 1 / 3
    cases = {
        "ghz-minus": ("GHZMinus", "HMinus"),
        "ghz-plus": ("GHZPlus", "HPlus"),
        "z-plus": ("ZPlus", "GPlus"),
        "z-minus": ("ZMinus", "GMinus"),
    }
    for name, targets in cases.items():
        m = choose_m(name, n1=n1, n2=n2)
        qubit = generic_haar(rng)
        run = run_protocol2(qubit, n1, n2, m)
        for branch in run.branches:
            if branch.alice_label in targets:
                assert branch.fidelity >= 1 - 1e-9, (name, branch.alice_label)
            else:
                assert branch.fidelity < 1 - 1e-6, (name, branch.alice_label)


def test_strategy_soundness_sampled(rng):
    # light version of the acceptance sweep: every named strategy hits its
    # targets across random real channels and generic inputs
    for name, strategy in STRATEGIES.items():
        for _ in range(5):
            qubit = generic_haar(rng)
            if strategy.protocol == "p1":
                n = rng.uniform(0.05, 1.0)
                run = run_protocol1(qubit, n, choose_m(name, n=n))
            else:
                n1, n2 = rng.uniform(0.05, 1.0, size=2)
                run = run_protocol2(qubit, n1, n2, choose_m(name, n1=n1, n2=n2))
            targets = strategy_targets(name, real=True)
            for branch in run.branches:
                if branch.alice_label in targets:
                    assert branch.fidelity >= 1 - 1e-9


def test_trivial_input_every_branch_exact():
    # alpha = 1 collapses every outcome row onto |0>
    run = run_protocol1(InputQubit(1, 0), 0.45, 0.8)
    for branch in run.branches:
        assert branch.fidelity == pytest.approx(1.0, abs=1e-12)


# ── receiver symmetry ────────────────────────────────────────────────────

def test_protocol1_receiver_symmetry(rng):
    qubit = generic_haar(rng)
    to_charlie = run_protocol1(qubit, 0.4, 0.9, "charlie")
    to_bob = run_protocol1(qubit, 0.4, 0.9, "bob")
    for a, b in zip(to_charlie.branches, to_bob.branches):
        assert a.alice_label == b.alice_label and a.helper_labels == b.helper_labels
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)


def test_protocol2_receiver_swap_exchanges_channels(rng):
    qubit = generic_haar(rng)
    to_bob = run_protocol2(qubit, 0.4, 0.7, 0.55, "bob")
    swapped = run_protocol2(qubit, 0.7, 0.4, 0.55, "charlie")
    for a, b in zip(to_bob.branches, swapped.branches):
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
    assert to_bob.params == {"n1": 0.4, "n2": 0.7, "m": 0.55}


# ── correction tables ────────────────────────────────────────────────────

def _corrections(protocol, **params):
    """(Alice outcome, helper outcome) -> correction, compiled for a one-helper run."""
    compiled, _, _ = compile_params(protocol, params)
    return {(alice, helper): gate for alice, (helper,), gate
            in zip(compiled.alice_labels, compiled.helper_labels, compiled.corrections)}


def test_h_minus_x_plus_correction_is_xz():
    assert _corrections("p2", n1=0.5, n2=0.3, m=0.7)[("HMinus", "XPlus")].name == "XZ"


def test_psi_minus_row_corrections():
    table1 = _corrections("p1", n=0.5, m=0.7)
    assert table1[("PsiMinus", "XPlus")].name == "ZX"
    assert table1[("PsiMinus", "XMinus")].name == "X"


def test_tables_are_total_and_unitary():
    from qsts import BELL_LABELS, GHZ_LABELS

    for receiver in ("bob", "charlie"):
        table1 = _corrections("p1", n=0.5, m=0.7, receiver=receiver)
        table2 = _corrections("p2", n1=0.5, n2=0.3, m=0.7, receiver=receiver)
        assert set(table1) == {(a, x) for a in BELL_LABELS for x in X_LABELS}
        assert set(table2) == {(a, x) for a in GHZ_LABELS for x in X_LABELS}
        for gate in list(table1.values()) + list(table2.values()):
            np.testing.assert_allclose(gate.matrix.conj().T @ gate.matrix, np.eye(2),
                                       atol=1e-12)


def test_derived_corrections_match_the_frozen_tables():
    # p1 and nparty-ghz: the paper's Table 1 at (Alice outcome, parity of the
    # helpers' XMinus count)
    cases = [("p1", {"n": 0.5, "m": 0.7, "receiver": r}) for r in ("bob", "charlie")]
    cases += [("nparty-ghz", {"parties": n, "n": 0.5, "m": 0.7, "receiver_index": r})
              for n in range(3, 11) for r in range(1, n)]
    for protocol, params in cases:
        compiled, _, _ = compile_params(protocol, params)
        for alice, helpers, gate in zip(compiled.alice_labels, compiled.helper_labels,
                                        compiled.corrections):
            parity = "XMinus" if helpers.count("XMinus") % 2 else "XPlus"
            assert np.array_equal(gate.matrix, ORACLE_TABLE1[(alice, parity)]), (
                protocol, params, alice, helpers)
    for receiver in ("bob", "charlie"):
        table2 = _corrections("p2", n1=0.5, n2=0.3, m=0.7, receiver=receiver)
        for row, gate in table2.items():
            assert np.array_equal(gate.matrix, ORACLE_TABLE2[row]), (receiver, row)

    # nparty-bell: the oracle's anchor rule at every party count and receiver
    for parties in range(3, 7):
        anchors = oracle_anchors(parties)
        for r in range(1, parties):
            compiled, _, _ = compile_params("nparty-bell", {"ns": (0.5,) * (parties - 1),
                                                            "m": 0.7, "receiver_index": r})
            for alice, helpers, gate in zip(compiled.alice_labels, compiled.helper_labels,
                                            compiled.corrections):
                rule = oracle_anchor_rule(*anchors[alice], helpers.count("XMinus") % 2, r)
                assert np.array_equal(gate.matrix, rule), (parties, r, alice, helpers)

    # at N = 3 the rule is Table 2 up to a global phase: it gives ZX = -XZ
    # on exactly p2's XZ rows, which is why p2 keeps its own names
    renamed = []
    for (alice, helper), gate in _corrections("nparty-bell", ns=(0.5, 0.3), m=0.7).items():
        paper = ORACLE_TABLE2[(alice, helper)]
        if not np.array_equal(gate.matrix, paper):
            assert gate.name == "ZX" and np.array_equal(gate.matrix, -paper), (alice, helper)
            renamed.append((alice, X_LABELS.index(helper)))
    assert tuple(renamed) == PRESETS["p2"].xz

def test_verify_table1_grid():
    for n in (0.3, 0.7, 1.0):
        for m in (0.3, 0.7, 1.0):
            checks = verify_table1(n, m, GENERIC)
            assert len(checks) == 8
            assert all(c.ok for c in checks)


def test_verify_table2_grid():
    for n1 in (0.3, 1.0):
        for n2 in (0.7, 1.0):
            for m in (0.3, 0.7):
                checks = verify_table2(n1, n2, m, GENERIC)
                assert len(checks) == 16
                assert all(c.ok for c in checks)


def test_verify_tables_complex_weights():
    assert all(c.ok for c in verify_table1(0.5 + 0.2j, 0.8 - 0.3j, InputQubit(0.6, 0.8j)))
    assert all(c.ok for c in verify_table2(0.5 + 0.2j, 0.4, 0.8 - 0.3j, InputQubit(0.6, 0.8j)))


EDGE_WEIGHTS = (1e-300, 1e-155, 0.7, 3.0, 1e154, 1e200, 1e300, 1e300j, 0.6 - 0.8e200j)


def test_verify_tables_pass_at_tiny_huge_and_complex_weights():
    # the expected states are built from each weight's scaled pair (1, w), as
    # the compile builds them: a raw product such as m* n1 n2 b would overflow
    source = InputQubit(0.6, 0.8j)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n, m in product(EDGE_WEIGHTS, repeat=2):
            assert all(c.ok for c in verify_table1(n, m, source)), (n, m)
        for n1, n2, m in product(EDGE_WEIGHTS, repeat=3):
            assert all(c.ok for c in verify_table2(n1, n2, m, source)), (n1, n2, m)


def test_verify_table_corruption_is_detected():
    checks = verify_table1(0.5, 0.7, GENERIC, corrupt_row=("PhiMinus", "XPlus"))
    bad = [c for c in checks if not c.ok]
    assert len(bad) == 1
    assert (bad[0].alice_label, bad[0].helper_label) == ("PhiMinus", "XPlus")
    checks = verify_table2(0.5, 0.3, 0.7, GENERIC, corrupt_row=("HMinus", "XMinus"))
    assert [c.ok for c in checks].count(False) == 1


# ── oracle equivalence (module-level sanity; full sweep in acceptance) ───

def test_runners_match_oracle(rng):
    for _ in range(5):
        qubit = generic_haar(rng)
        n, m = rng.uniform(0.1, 1.2, size=2)
        assert_run_matches_oracle(
            run_protocol1(qubit, n, m), oracle_protocol1(qubit.alpha, qubit.beta, n, m)
        )
        n2 = rng.uniform(0.1, 1.2)
        assert_run_matches_oracle(
            run_protocol2(qubit, n, n2, m),
            oracle_protocol2(qubit.alpha, qubit.beta, n, n2, m),
        )


# ── many-party extensions ────────────────────────────────────────────────

def test_nparty_ghz_reduces_to_protocol1(rng):
    qubit = generic_haar(rng)
    base = run_protocol1(qubit, 0.45, 0.75)
    ext = run_nparty_ghz(qubit, 3, 0.45, 0.75, receiver_index=2)
    for a, b in zip(ext.branches, base.branches):
        assert a.alice_label == b.alice_label
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)


def test_nparty_bell_reduces_to_protocol2(rng):
    qubit = generic_haar(rng)
    base = run_protocol2(qubit, 0.45, 0.3, 0.75)
    ext = run_nparty_bell(qubit, [0.45, 0.3], 0.75, receiver_index=2)
    for a, b in zip(ext.branches, base.branches):
        assert a.alice_label == b.alice_label
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)


def test_nparty_ghz_maximal_weights():
    run = run_nparty_ghz(GENERIC, 4, 1, 1)
    assert len(run.branches) == 16
    for branch in run.branches:
        assert branch.fidelity == pytest.approx(1.0, abs=1e-12)


def test_nparty_ghz_strategy_structure(rng):
    # m = n keeps the PhiMinus / PsiPlus pairing at four parties
    qubit = generic_haar(rng)
    run = run_nparty_ghz(qubit, 4, 0.6, 0.6)
    for branch in run.branches:
        if branch.alice_label in ("PhiMinus", "PsiPlus"):
            assert branch.fidelity >= 1 - 1e-9
        else:
            assert branch.fidelity < 1 - 1e-6


def test_nparty_ghz_matches_oracle(rng):
    qubit = generic_haar(rng)
    run = run_nparty_ghz(qubit, 5, 0.7, 0.4, receiver_index=2)
    assert_run_matches_oracle(
        run, oracle_nparty_ghz(qubit.alpha, qubit.beta, 5, 0.7, 0.4, receiver_index=2)
    )


def test_nparty_bell_maximal_weights():
    run = run_nparty_bell(GENERIC, [1, 1, 1], 1)
    assert len(run.branches) == 16 * 4
    for branch in run.branches:
        assert branch.fidelity == pytest.approx(1.0, abs=1e-12)


def test_nparty_bell_product_strategy(rng):
    ns = (0.5, 0.4, 0.8)
    m = choose_m("ghz-minus", ns=ns)
    assert m == pytest.approx(0.16)
    targets = nparty_bell_targets("ghz-minus", 4)
    assert targets == {"S0000Minus", "S1000Minus"}
    qubit = generic_haar(rng)
    run = run_nparty_bell(qubit, ns, m)
    hit = {b.alice_label for b in run.branches if b.fidelity >= 1 - 1e-9}
    assert hit == targets


def test_nparty_bell_matches_oracle(rng):
    qubit = generic_haar(rng)
    ns = [0.6, 0.9, 0.35]
    run = run_nparty_bell(qubit, ns, 0.5, receiver_index=1)
    assert_run_matches_oracle(
        run, oracle_nparty_bell(qubit.alpha, qubit.beta, ns, 0.5, receiver_index=1)
    )


def test_nparty_bounds():
    with pytest.raises(ValueError):
        run_nparty_ghz(GENERIC, 2, 1, 1)
    with pytest.raises(ValueError):
        run_nparty_ghz(GENERIC, 11, 1, 1)
    with pytest.raises(ValueError):
        run_nparty_bell(GENERIC, [1], 1)
    with pytest.raises(ValueError):
        run_nparty_ghz(GENERIC, 4, 1, 1, receiver_index=0)


def test_party_count_and_receiver_index_must_be_integers():
    # int() would truncate these to 4 parties and party 1
    with pytest.raises(ValueError, match="parties must be an integer, got 4.7"):
        run_nparty_ghz(GENERIC, 4.7, 0.5, 0.5)
    with pytest.raises(ValueError, match="receiver_index must be an integer, got 1.9"):
        run_nparty_ghz(GENERIC, 4, 0.5, 0.5, receiver_index=1.9)
    with pytest.raises(ValueError, match="receiver_index must be an integer"):
        run_nparty_bell(GENERIC, [0.5, 0.5], 0.5, receiver_index=float("inf"))
    run = run_nparty_ghz(GENERIC, np.int64(4), 0.5, 0.5, receiver_index=np.int32(1))
    assert run.params["parties"] == 4 and run.receiver == "party1"
    assert run_nparty_bell(GENERIC, [0.5, 0.5], 0.5, receiver_index=np.uint8(1)).receiver == "party1"


@pytest.mark.parametrize("flag", [True, np.True_, np.bool_(True)])
def test_party_count_and_receiver_index_refuse_bools_of_python_and_numpy(flag):
    # a bool equals 1, which int() would take as party 1
    with pytest.raises(ValueError, match=f"receiver_index must be an integer, got {flag!r}"):
        run_nparty_ghz(GENERIC, 4, 0.5, 0.5, receiver_index=flag)
    with pytest.raises(ValueError, match=f"receiver_index must be an integer, got {flag!r}"):
        run_nparty_bell(GENERIC, [0.5, 0.5], 0.5, receiver_index=flag)
    with pytest.raises(ValueError, match=f"parties must be an integer, got {flag!r}"):
        run_nparty_ghz(GENERIC, flag, 0.5, 0.5)
    with pytest.raises(ValueError, match=f"parties must be an integer, got {flag!r}"):
        compile_params("nparty-ghz", {"parties": flag, "n": 0.5, "m": 0.5})


def test_success_probability_counts_a_branch_at_the_threshold():
    # branches at or above SUCCESS_FIDELITY are exact transfers
    def branch(probability, fid):
        return BranchRecord("PhiPlus", ("XPlus",), probability, None, fid, IDENTITY, 3)
    run = ProtocolRun("p1", GENERIC, {}, "charlie", (
        branch(0.25, SUCCESS_FIDELITY),
        branch(0.5, np.nextafter(SUCCESS_FIDELITY, 0.0)),
        branch(0.25, 1.0),
    ))
    assert run.success_probability == 0.5


@pytest.mark.parametrize("protocol, params, unexpected", [
    ("nparty-ghz", {"parties": 4, "n": 0.5, "m": 0.5, "receiver": "bob"}, "'receiver'"),
    ("p1", {"n": 0.5, "m": 0.5, "receiver_index": 1}, "'receiver_index'"),
    ("p1", {"n": 0.5, "m": 0.5, "bogus": 1}, "'bogus'"),
])
def test_compile_params_refuses_keys_its_protocol_does_not_read(protocol, params, unexpected):
    with pytest.raises(ValueError, match=unexpected):
        compile_params(protocol, params)


def test_classical_bit_accounting():
    assert run_protocol1(GENERIC, 1, 1).branches[0].classical_bits == 3
    assert run_protocol2(GENERIC, 1, 1, 1).branches[0].classical_bits == 4
    assert run_nparty_ghz(GENERIC, 5, 1, 1).branches[0].classical_bits == 5
    assert run_nparty_bell(GENERIC, [1, 1, 1], 1).branches[0].classical_bits == 6


# ── probability conservation ─────────────────────────────────────────────

def test_total_probability_is_one(rng):
    for _ in range(5):
        qubit = generic_haar(rng)
        n, m = rng.uniform(0.05, 1.5, size=2)
        assert run_protocol1(qubit, n, m).total_probability == pytest.approx(1, abs=1e-10)
        assert run_protocol2(qubit, n, 0.77, m).total_probability == pytest.approx(1, abs=1e-10)
        assert run_nparty_ghz(qubit, 4, n, m).total_probability == pytest.approx(1, abs=1e-10)
        assert run_nparty_bell(qubit, [n, 0.5, m], 0.3).total_probability == pytest.approx(
            1, abs=1e-10
        )


# ── withheld helper bit ──────────────────────────────────────────────────

def test_withheld_bit_dephases_receiver(rng):
    for _ in range(5):
        qubit = generic_haar(rng)
        n, m = rng.uniform(0.1, 1.0, size=2)
        run = run_protocol1(qubit, n, m)
        for label in ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"):
            rho = bob_bit_withheld_state(run, label)
            assert abs(rho[0, 1]) < 1e-12 and abs(rho[1, 0]) < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_withheld_bit_pure_for_pole_input():
    run = run_protocol1(InputQubit(1, 0), 0.6, 0.8)
    rho = bob_bit_withheld_state(run, "PhiPlus")
    np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-12)


def test_withheld_bit_errors():
    run = run_protocol1(GENERIC, 0.5, 0.5)
    with pytest.raises(ValueError):
        bob_bit_withheld_state(run, "NoSuchLabel")
    # alpha = 0 with m = 0 kills the PsiPlus outcome entirely
    dead = run_protocol1(InputQubit(0, 1), 0.5, 0)
    with pytest.raises(ValueError):
        bob_bit_withheld_state(dead, "PsiPlus")


# ── bit-flip noise ───────────────────────────────────────────────────────

def test_bitflip_without_recovery_damages_fidelity(rng):
    qubit = generic_haar(rng)
    run = run_protocol1(qubit, 0.5, 0.5)
    branch = next(b for b in run.branches if b.alice_label == "PhiMinus")
    damaged = apply_unitary(branch.receiver_state, SIGMA_X, 0)
    spoiled = fidelity(qubit.as_state(), damaged)
    assert spoiled == pytest.approx(
        abs(np.vdot(qubit.as_state().amplitudes, damaged.amplitudes)) ** 2
    )
    assert spoiled < 1 - 1e-6
