"""Scalar rules: weight checks, the input qubit, m-strategies, the protocol
presets with their parameter check, and closed-form rates.

Nothing here needs a state vector, so this module imports no numpy: the CLI
parses and validates its arguments, resolves m-strategies and answers
closed-form queries from it alone, and loads the array engine only for the
commands that compute arrays.  ``states``, ``bases``, ``protocols`` and
``efficiency`` import these names from here, so each has one definition.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Mapping, Sequence

NORM_ATOL = 1e-10          # unit-norm tolerance on constructed states


# ── weights and the input qubit ──────────────────────────────────────────

def _finite(w: complex) -> complex:
    """``w`` itself; a non-finite weight raises ``ValueError``."""
    if not cmath.isfinite(w):
        raise ValueError(f"weights must be finite, got {w!r}")
    return w


def _weight_norm(m: complex) -> float:
    """1/sqrt(1 + |m|^2) without overflow; every weight passes through here."""
    _finite(m)
    return 1.0 / math.hypot(1.0, m.real, m.imag)


@dataclass(frozen=True)
class InputQubit:
    """The qubit to be shared: alpha|0> + beta|1> with |alpha|^2+|beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        a, b = complex(self.alpha), complex(self.beta)
        if not all(math.isfinite(x) for x in (a.real, a.imag, b.real, b.imag)):
            raise ValueError("amplitudes must be finite")
        try:
            weight = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:  # a finite amplitude whose square is no double
            weight = math.inf
        if abs(weight - 1.0) > NORM_ATOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {weight!r}, expected 1")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def as_state(self):
        """The input as a one-qubit ``PureState``."""
        from .states import PureState
        return PureState(1, (self.alpha, self.beta))


class DegenerateChannelError(ValueError):
    """An m-strategy rule would divide by a vanishing channel weight."""


# ── m-strategies ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class MStrategy:
    """A named rule fixing the basis weight m from the channel weights.

    The rule makes exact the Alice outcomes of sign ``minus`` whose anchor
    has bit 1 on the ``flipped`` channels, as ``choose_m`` orders its
    weights, and bit 0 on the others.
    """

    name: str
    protocol: str  # "p1" | "p2"
    flipped: tuple[int, ...]
    minus: bool


#: Each rule is a stem, which fixes its flipped channels, and a sign.
STRATEGIES: dict[str, MStrategy] = {
    f"{stem}-{sign}": MStrategy(f"{stem}-{sign}", protocol, flipped, sign == "minus")
    for stem, protocol, flipped in (("phi", "p1", ()), ("psi", "p1", (0,)), ("ghz", "p2", ()),
                                    ("h", "p2", ()), ("z", "p2", (0,)), ("g", "p2", (0,)))
    for sign in ("plus", "minus")
}


#: The two-channel rules that flip no channel: they set m from the product of
#: the channel weights, and so apply to any number of Bell-type channels.
PRODUCT_RULES = tuple(name for name, s in STRATEGIES.items()
                      if s.protocol == "p2" and not s.flipped)


def _resolve_strategy(strategy: MStrategy | str) -> MStrategy:
    if isinstance(strategy, MStrategy):
        return strategy
    try:
        return STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None


def _split(z: complex) -> tuple[complex, int]:
    # z = mantissa * 2**e, the mantissa's larger part in [0.5, 1)
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def _scaled(weights: Sequence[complex]) -> tuple[complex, int]:
    # prod(weights) = mantissa * 2**exponent, with no partial product out of range
    mantissa, exponent = complex(1.0), 0
    for w in weights:
        factor, e = _split(w)
        mantissa, shift = _split(mantissa * factor)
        exponent += e + shift
    return mantissa, exponent


def _quotient(top: Sequence[complex], bottom: Sequence[complex]) -> complex:
    """prod(top) / prod(bottom), each product carried as ``_scaled`` does where
    a plain one leaves the range of a double and no weight is 0.  An empty
    ``bottom`` divides nothing, so the sign of a zero part survives."""
    num, den = reduce(mul, top, complex(1.0)), reduce(mul, bottom, complex(1.0))
    if 0 in top or 0 in bottom or (num and den and cmath.isfinite(num) and cmath.isfinite(den)):
        return num / den if bottom else num
    (a, ea), (b, eb) = _scaled(top), _scaled(bottom)
    mantissa = a / b if bottom else a
    try:
        q = complex(math.ldexp(mantissa.real, ea - eb), math.ldexp(mantissa.imag, ea - eb))
    except OverflowError:
        return complex(math.inf)
    if max(abs(q.real), abs(q.imag)) < sys.float_info.min and den:
        # q is 0 or subnormal: keep a zero of the plain quotient, sign and all
        plain = num / den if bottom else num
        if plain == 0:
            return plain
    return q


def choose_m(
    strategy: MStrategy | str,
    *,
    n: complex | float | None = None,
    n1: complex | float | None = None,
    n2: complex | float | None = None,
    ns: Sequence[complex | float] | None = None,
) -> complex:
    """Resolve the basis weight mandated by a named strategy.

    Single-channel rules take ``n``; two-channel rules take ``n1``/``n2``
    (the helper's channel weight, then the receiver's, as ``p2_channels``
    orders them) or, for the ``PRODUCT_RULES``, any number of weights ``ns``.
    With N0 the product of the weights of the channels the rule leaves at
    bit 0 and N1 of those it flips, a minus rule sets m = N0/N1 and a plus
    rule m = conj(N1/N0).  A non-finite weight, or an m beyond the range of
    a double, raises ``ValueError``; a weight in the divisor that is exactly
    0 raises ``DegenerateChannelError``.
    """
    s = _resolve_strategy(strategy)
    if s.protocol == "p1":
        if n is None:
            raise ValueError(f"strategy {s.name!r} needs the channel weight n")
        ns = (n,)
    elif ns is None:
        if n1 is None or n2 is None:
            raise ValueError(f"strategy {s.name!r} needs channel weights n1 and n2")
        ns = (n1, n2)
    weights = tuple(_finite(complex(x)) for x in ns)
    if s.flipped and s.protocol == "p2" and len(weights) != 2:
        raise ValueError(f"strategy {s.name!r} applies to exactly two channels")
    ones = [weights[c] for c in s.flipped]
    zeros = [w for c, w in enumerate(weights) if c not in s.flipped]
    try:
        m = _quotient(zeros, ones) if s.minus else _quotient(ones, zeros).conjugate()
    except ZeroDivisionError:
        raise DegenerateChannelError(
            f"strategy {s.name!r} is undefined for a vanishing channel weight"
        ) from None
    if not cmath.isfinite(m):
        raise ValueError(f"strategy {s.name!r} puts the basis weight m beyond the range "
                         "of a double for these channel weights")
    return m


def p2_channels(params: Mapping) -> tuple[complex, complex]:
    """The channel weights of a "p2" parameter set as (helper's, receiver's).

    The runner's ``n1`` is Bob's channel and ``n2`` Charlie's, so a Bob
    ``receiver`` swaps them.  ``check_params`` puts p2's channels in this
    order for the compile, and ``choose_m`` takes them as its ``n1``/``n2``.
    """
    n1, n2 = complex(params["n1"]), complex(params["n2"])
    return (n2, n1) if params.get("receiver", "charlie") == "bob" else (n1, n2)


# ── protocol presets and the parameter check ─────────────────────────────

#: The fewest and most parties each channel family's runners take.
PARTY_CAPS = {"ghz": (3, 10), "bell": (3, 6)}


#: A protocol as a preset: its channel ``family`` (a key of ``PARTY_CAPS``),
#: its ``xz`` rows, the (Alice outcome, helper parity) pairs whose anchor-rule
#: ZX the paper spells XZ, its ``params`` (the channel weights, m, then any
#: party count) in the order a run records them, and the key that names its
#: ``receiver``: "receiver" for Bob or Charlie, "receiver_index" for a party
#: 1..N-1.  p2 and nparty-bell at N = 3 share one layout but not its names.
_Preset = namedtuple("_Preset", "family xz params receiver")

#: The four protocols as presets of the two channel families.
PRESETS = {
    "p1": _Preset("ghz", (("PsiPlus", 1),), ("n", "m"), "receiver"),
    "p2": _Preset("bell", (("HPlus", 1), ("HMinus", 0), ("ZMinus", 0)), ("n1", "n2", "m"),
                  "receiver"),
    "nparty-ghz": _Preset("ghz", (("PsiPlus", 1),), ("n", "m", "parties"), "receiver_index"),
    "nparty-bell": _Preset("bell", (), ("ns", "m"), "receiver_index"),
}


def _integer(value, name: str) -> int:
    # a count or index is a real number that int() keeps, and no bool: numpy
    # registers its integers and floats as numbers.Real, but not its bool
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_parties(family: str, num_parties: int, receiver: int) -> None:
    """Refuse a party count or receiver index that the family's ``PARTY_CAPS`` do not fit."""
    low, high = PARTY_CAPS[family]
    if not low <= num_parties <= high:
        raise ValueError(f"the {family} family takes {low}..{high} parties, got {num_parties}")
    if not 1 <= receiver <= num_parties - 1:
        raise ValueError(f"receiver_index {receiver} out of range for {num_parties} parties")


def check_params(protocol: str, params: Mapping) -> tuple[tuple, dict, str]:
    """Validate a runner parameter set against its ``PRESETS`` row.

    ``params`` holds every parameter of the row by name and may name the
    receiver: ``receiver`` "bob" or "charlie" (default charlie), or
    ``receiver_index`` 1..N-1 (default, or None, N-1).  An unknown protocol,
    a key the row does not take, a missing parameter, another receiver name,
    a party count or index that is no integer or that ``PARTY_CAPS`` does
    not fit, and a non-finite weight raise ``ValueError``, checked in that
    order.  Returns what ``protocols.compile_params`` compiles (family,
    channel weights in channel order, m, parties, receiver index, xz rows),
    the parameters as a ``ProtocolRun`` records them, and the receiver's name.
    """
    preset = PRESETS.get(protocol)
    if preset is None:
        raise ValueError(f"unknown protocol {protocol!r}")
    family, xz, names, receiver_key = preset
    accepted = {*names, receiver_key}
    if not params.keys() <= accepted:
        unexpected = ", ".join(sorted(map(repr, params.keys() - accepted)))
        raise ValueError(f"{protocol} takes no parameter {unexpected}")
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"{protocol} needs parameter {', '.join(map(repr, missing))}")
    named = receiver_key == "receiver"
    receiver = params.get(receiver_key, "charlie" if named else None)
    if named and receiver not in ("bob", "charlie"):
        raise ValueError(f"receiver must be 'bob' or 'charlie', got {receiver!r}")
    run = {name: _integer(params[name], name) if name == "parties"
           else tuple(map(complex, params[name])) if name == "ns" else complex(params[name])
           for name in names}
    # every row names its channel weights first, then m
    weights = run["ns"] if "ns" in run else tuple(run.values())[:names.index("m")]
    num_parties = run.get("parties", len(weights) + 1 if family == "bell" else 3)
    if protocol == "p2":  # p1 has one channel, so its receiver orders nothing
        weights = p2_channels(params)
    index = num_parties - 1 if named or receiver is None else _integer(receiver, "receiver_index")
    _check_parties(family, num_parties, index)
    for w in (run["m"], *weights):
        _finite(w)
    return ((family, weights, run["m"], num_parties, index, xz), run,
            receiver if named else f"party{index}")


# ── closed-form rates ────────────────────────────────────────────────────

#: The weights that the closed-form protocols take, by name: the channel
#: weights, then the basis weight m.
WEIGHTS = {protocol: PRESETS[protocol].params for protocol in ("p1", "p2")}


def _signed_concurrence(x: float) -> float:
    # 2x/(1+x^2), with no overflow of x^2: equal to 2/(x + 1/x) for |x| > 1
    return 2.0 / (x + 1.0 / x) if abs(x) > 1.0 else 2.0 * x / (1.0 + x * x)


def concurrence(m: float) -> float:
    """Pairwise entanglement 2|m|/(1+|m|^2) of the weight-m two-qubit states."""
    return abs(_signed_concurrence(float(m)))


def _closed_form(*weights: float) -> float:
    # (2/3)(1 + prod c(w)/2), the factors multiplied in ascending order so the
    # result is bitwise invariant under permutation of the weights
    product = 1.0
    for factor in sorted(_signed_concurrence(float(w)) for w in weights):
        product *= factor
    return (2.0 / 3.0) * (1.0 + product / 2.0)


def cpro1_analytic(n: float, m: float) -> float:
    """Average transmission rate of the GHZ-channel protocol, real weights.

    (2/3)(1 + 2mn/((1+m^2)(1+n^2))) = (2/3)(1 + c(m)c(n)/2); equals 1 only
    at m = n = 1.
    """
    return _closed_form(n, m)


def cpro2_analytic(n1: float, n2: float, m: float) -> float:
    """Average transmission rate of the two-Bell-channel protocol, real weights.

    (2/3)(1 + 4 m n1 n2 / ((1+m^2)(1+n1^2)(1+n2^2))) = (2/3)(1 + c(m)c(n1)c(n2)/2);
    invariant under any permutation of (m, n1, n2) and equal to 1 only at
    m = n1 = n2 = 1.
    """
    return _closed_form(n1, n2, m)


def analytic_rate(protocol: str, params: Mapping) -> float | None:
    """Closed-form rate for a runner parameter set, None where undefined.

    ``params`` is checked as the runners check it, by ``check_params``,
    which raises ``ValueError`` on a set they refuse.  The rate is defined
    for the protocols of ``WEIGHTS``, "p1" and "p2", when every weight they
    name is real: then it is (2/3)(1 + prod c(w)/2) over those weights,
    c(x) = 2x/(1+x^2), which is ``cpro1_analytic`` or ``cpro2_analytic``.
    The many-party extensions and complex weights have no closed form here.
    """
    _, run, _ = check_params(protocol, params)
    if protocol not in WEIGHTS:
        return None
    values = run.values()  # the weights of WEIGHTS[protocol], in its order
    if any(value.imag != 0.0 for value in values):
        return None
    return _closed_form(*(value.real for value in values))
