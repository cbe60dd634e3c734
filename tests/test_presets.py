"""One preset table and one parameter check, read alike by every entry point.

``rules.check_params`` validates a parameter set against its ``PRESETS``
row.  The runners and the Monte-Carlo estimator reach it through
``compile_params``, the closed forms through ``analytic_rate``; whatever
one of them refuses, the other refuses with the same error.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsts import analytic_rate, cpro1_analytic, cpro2_analytic, cpro_monte_carlo
from qsts.protocols import compile_params
from qsts.rules import PRESETS


@pytest.mark.parametrize("protocol, params, missing", [
    ("p1", {"n": 0.5}, "'m'"),
    ("p1", {"m": 0.5}, "'n'"),
    ("p2", {"n2": 0.5, "receiver": "bob"}, "'n1', 'm'"),
    ("nparty-ghz", {"n": 0.5, "m": 0.5, "receiver_index": 1}, "'parties'"),
    ("nparty-bell", {}, "'ns', 'm'"),
])
def test_a_missing_parameter_is_named_at_every_entry_point(protocol, params, missing):
    message = f"^{protocol} needs parameter {missing}$"
    with pytest.raises(ValueError, match=message):
        compile_params(protocol, params)
    with pytest.raises(ValueError, match=message):
        analytic_rate(protocol, params)
    with pytest.raises(ValueError, match=message):
        cpro_monte_carlo(protocol, params, 10, 1)


def test_unexpected_keys_are_reported_before_missing_ones():
    with pytest.raises(ValueError, match="^p1 takes no parameter 'bogus'$"):
        analytic_rate("p1", {"n": 0.5, "bogus": 1})


_WEIGHTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1.0, 1e-300, 1e300, -1e308, 0.5 + 0.3j, 0.9j,
                     math.nan, math.inf, -math.inf, complex(0.5, math.nan)]),
)
_OPTIONAL = {
    "parties": st.one_of(st.integers(1, 12), st.floats(1.0, 12.0),
                         st.sampled_from([4.0, 3.5, True])),
    "receiver": st.sampled_from(["bob", "charlie", "alice", None]),
    "receiver_index": st.one_of(st.none(), st.integers(0, 12), st.sampled_from([1.5, 2.0])),
    "bogus": st.just(1),
}


@st.composite
def _parameter_sets(draw):
    """A protocol (or an unknown one) and a parameter dict for it.

    Each parameter of the protocol's row is present with probability 0.9,
    its receiver key with 0.5 and every other key with 0.1, so that valid
    sets, sets with a missing or unexpected key and sets with a bad value
    are all drawn.
    """
    protocol = draw(st.sampled_from([*PRESETS, *PRESETS, "p7"]))
    row = PRESETS.get(protocol)
    params = {}
    for key in ("n", "n1", "n2", "ns", "m", *_OPTIONAL):
        tenths = 9 if row and key in row.params else 5 if row and key == row.receiver else 1
        if draw(st.integers(0, 9)) >= tenths:
            continue
        if key == "ns":
            params[key] = tuple(draw(st.lists(_WEIGHTS, max_size=7)))
        elif key in _OPTIONAL:
            params[key] = draw(_OPTIONAL[key])
        else:
            params[key] = draw(_WEIGHTS)
    return protocol, params


def _outcome(function, *args):
    try:
        function(*args)
    except Exception as exc:  # noqa: BLE001 -- the error itself is compared
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(_parameter_sets())
def test_analytic_rate_refuses_exactly_what_compile_params_refuses(case):
    protocol, params = case
    assert _outcome(analytic_rate, protocol, params) == _outcome(compile_params, protocol,
                                                                 params)


_REAL = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(n=_REAL, n1=_REAL, n2=_REAL, m=_REAL, receiver=st.sampled_from(["bob", "charlie"]))
def test_analytic_rate_is_the_closed_form_bitwise_at_either_receiver(n, n1, n2, m, receiver):
    p1 = analytic_rate("p1", {"n": n, "m": m, "receiver": receiver})
    p2 = analytic_rate("p2", {"n1": n1, "n2": n2, "m": m, "receiver": receiver})
    assert p1.hex() == cpro1_analytic(n, m).hex()
    assert p2.hex() == cpro2_analytic(n1, n2, m).hex()
