"""Every m-strategy is exact on its targets: a proof over symbols, per layout.

For every layout that a strategy's protocol reaches, the paper's m for the
strategy makes a_j = b_j an identity on every branch of each target outcome
(``strategy_targets``, ``nparty_bell_targets``) and on no branch of any
other outcome.  The m formulas are written here from the paper, per stem,
and not read from the package.
"""

import subprocess
import sys
from functools import reduce
from operator import mul

import pytest
import sympy
from symbolic import exact_branches

from qsts import STRATEGIES, nparty_bell_targets, strategy_targets
from qsts.rules import PARTY_CAPS, PRESETS, PRODUCT_RULES

conj = sympy.conjugate


def _product(weights):
    return reduce(mul, weights, sympy.Integer(1))


#: The paper's m per stem, as (plus rule, minus rule) over the channel
#: weights in the compile's order: n for the ghz family, the helper's then
#: the receiver's for p2, and the parties' in order for the product rules.
PAPER_M = {
    "phi": (lambda w: conj(1 / w[0]), lambda w: w[0]),
    "psi": (lambda w: conj(w[0]), lambda w: 1 / w[0]),
    "ghz": (lambda w: conj(1 / _product(w)), _product),
    "h": (lambda w: conj(1 / _product(w)), _product),
    "z": (lambda w: conj(w[0] / w[1]), lambda w: w[1] / w[0]),
    "g": (lambda w: conj(w[0] / w[1]), lambda w: w[1] / w[0]),
}


def _paper_m(name, weights):
    stem, sign = name.rsplit("-", 1)
    return PAPER_M[stem][sign == "minus"](weights)


def _assert_exactly_on(targets, layout, name, weights):
    exact = exact_branches(layout, _paper_m(name, weights), weights)
    assert targets <= exact.keys(), (name, layout)
    for label, verdicts in exact.items():
        assert verdicts == {label in targets}, (name, layout, label)


def _layouts():
    low, high = PARTY_CAPS["ghz"]
    for parties in range(low, high + 1):
        yield pytest.param("p1", [("ghz", parties, receiver, PRESETS["p1"].xz)
                                  for receiver in range(1, parties)], id=f"ghz{parties}")
    # a p2 receiver is always the last channel: check_params orders the weights
    yield pytest.param("p2", [("bell", 3, 2, PRESETS["p2"].xz)], id="p2")
    low, high = PARTY_CAPS["bell"]
    for parties in range(low, high + 1):
        yield pytest.param("nparty-bell", [("bell", parties, receiver, ())
                                           for receiver in range(1, parties)],
                           id=f"bell{parties}")


@pytest.mark.parametrize("protocol, layouts", _layouts())
def test_each_strategy_is_exact_on_its_targets_and_nowhere_else(protocol, layouts):
    checked = 0
    for layout in layouts:
        parties = layout[1]
        if protocol == "p1":  # one weight: its own target if complex, a pair if real
            for real in (False, True):
                weights = (sympy.Symbol("n", real=True) if real else sympy.Symbol("n"),)
                for name, rule in STRATEGIES.items():
                    if rule.protocol == "p1":
                        _assert_exactly_on(strategy_targets(name, real=real), layout, name,
                                           weights)
                        checked += 1
        else:
            weights = sympy.symbols(f"n1:{parties}")
            names = ([n for n, rule in STRATEGIES.items() if rule.protocol == "p2"]
                     if protocol == "p2" else PRODUCT_RULES)
            for name in names:
                targets = (strategy_targets(name) if protocol == "p2"
                           else nparty_bell_targets(name, parties))
                _assert_exactly_on(targets, layout, name, weights)
                checked += 1
    assert checked


def test_the_package_does_not_import_sympy():
    code = ("import sys, qsts, qsts.cli, qsts.protocols, qsts.efficiency; "
            "print('sympy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
