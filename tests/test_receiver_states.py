"""Receiver states: read-only row views of one frozen array per run, branch
records that stay frozen dataclasses under their hand-written ``__init__``, and
seeded runs pinned bit for bit."""

import cmath
import dataclasses
import hashlib
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsts import (BranchRecord, haar_sample, run_nparty_bell, run_nparty_ghz, run_protocol1,
                  run_protocol2)

real_weights = st.floats(-20.0, 20.0)
complex_weights = st.builds(cmath.rect, st.floats(0.0, 20.0), st.floats(0.0, 2 * math.pi))
weights = st.one_of(real_weights, complex_weights, st.just(0.0))


@st.composite
def runs(draw):
    """A run of one of the four runners at any of its receivers."""
    source = haar_sample(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    protocol = draw(st.sampled_from(("p1", "p2", "nparty-ghz", "nparty-bell")))
    m = draw(weights)
    if protocol in ("p1", "p2"):
        receiver = draw(st.sampled_from(("bob", "charlie")))
        if protocol == "p1":
            return run_protocol1(source, draw(weights), m, receiver)
        return run_protocol2(source, draw(weights), draw(weights), m, receiver)
    parties = draw(st.integers(3, 10 if protocol == "nparty-ghz" else 6))
    receiver = draw(st.integers(1, parties - 1))
    if protocol == "nparty-ghz":
        return run_nparty_ghz(source, parties, draw(weights), m, receiver)
    ns = draw(st.lists(weights, min_size=parties - 1, max_size=parties - 1))
    return run_nparty_bell(source, ns, m, receiver)


@settings(max_examples=120, deadline=None)
@given(run=runs())
def test_every_live_receiver_state_is_read_only(run):
    live = [b.receiver_state.amplitudes for b in run.branches if b.receiver_state is not None]
    assert live  # the probabilities sum to 1, so some branch is live
    for amplitudes in live:
        assert amplitudes.shape == (2,) and not amplitudes.flags.writeable
        with pytest.raises(ValueError):
            amplitudes.flags.writeable = True
        with pytest.raises(ValueError):
            amplitudes[0] = 1.0
    # one frozen array per run, each live branch a row view of it
    batch = live[0].base
    assert batch is not None and not batch.flags.writeable
    assert all(amplitudes.base is batch for amplitudes in live)


# ── the branch record's contract ─────────────────────────────────────────

FIELDS = tuple(field.name for field in dataclasses.fields(BranchRecord))


def test_record_init_takes_the_fields_in_order():
    parameters = tuple(inspect.signature(BranchRecord).parameters)
    assert parameters == FIELDS


def _hexes(record):
    return record.probability.hex(), record.fidelity.hex()


@settings(max_examples=60, deadline=None)
@given(run=runs())
def test_replace_rebuilds_every_record_field_for_field(run):
    for record in run.branches:
        copy = dataclasses.replace(record)
        assert copy is not record and type(copy) is BranchRecord
        assert _hexes(copy) == _hexes(record)
        for name in ("alice_label", "helper_labels", "receiver_state", "correction",
                     "classical_bits"):
            assert getattr(copy, name) is getattr(record, name)
        assert repr(copy) == repr(record)
        assert vars(copy).keys() == vars(record).keys() == set(FIELDS)


@settings(max_examples=30, deadline=None)
@given(run=runs())
def test_every_record_stays_frozen(run):
    record = run.branches[0]
    before = repr(record)
    for name in FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == before


@settings(max_examples=30, deadline=None)
@given(run=runs())
def test_a_pickled_record_round_trips(run):
    for record in run.branches:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is BranchRecord and repr(copy) == repr(record)
        assert _hexes(copy) == _hexes(record)
        assert (copy.alice_label, copy.helper_labels, copy.classical_bits) == (
            record.alice_label, record.helper_labels, record.classical_bits)
        assert copy.correction.name == record.correction.name
        assert copy.correction.matrix.tobytes() == record.correction.matrix.tobytes()
        if record.receiver_state is None:
            assert copy.receiver_state is None
        else:
            assert (copy.receiver_state.amplitudes.tobytes()
                    == record.receiver_state.amplitudes.tobytes())
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.probability = 0.0


# ── seeded runs pinned bit for bit ───────────────────────────────────────

#: Each run's input is ``haar_sample`` of ``default_rng(seed)``.
PINNED_CALLS = {
    "p1-real-charlie": (1, lambda q: run_protocol1(q, 0.45, 1.3)),
    "p1-complex-bob": (2, lambda q: run_protocol1(q, 0.5 + 0.3j, 0.9j, "bob")),
    "p2-real-bob": (3, lambda q: run_protocol2(q, 0.3, 0.7, 0.6, "bob")),
    "p2-complex-charlie": (4, lambda q: run_protocol2(q, 0.5 - 0.2j, 1.7j, 0.8 + 0.1j)),
    "ghz5-complex-party2": (5, lambda q: run_nparty_ghz(q, 5, 0.6 + 0.7j, -0.4j, 2)),
    "ghz10-real": (6, lambda q: run_nparty_ghz(q, 10, 0.8, 1.25)),
    "bell4-complex-party1": (7, lambda q: run_nparty_bell(q, (0.5, 0.3 + 0.2j, 0.9), 0.7, 1)),
    "bell6-zero-party3": (8, lambda q: run_nparty_bell(q, (0.5, 0.0, 1.1, -0.6, 0.3j), 0.0, 3)),
    "p1-extreme": (9, lambda q: run_protocol1(q, 1e-300, 1e300)),
}

#: sha256 of ``_run_hexes`` for each pinned run, recorded while
#: ``_fresh_state`` still wrote the read-only flag on every frozen row.
PINNED_DIGESTS = {
    "p1-real-charlie": "bd9f9a4f208d1aaf7981798145fce777dc8310a3604083fef27e0233c5e1bd3c",
    "p1-complex-bob": "214ebe2c76ca0c0cddd1c9ea0e87ae6c95b6c23ab14e90df3504446d77ce81bb",
    "p2-real-bob": "762efec8e491ebcaa7bf40d7beef9a18c809d1bf1f88c164f06165c83fde3e2e",
    "p2-complex-charlie": "c0142d2f7fb0231160a79dd56b6880a540ee7f8f1d7f4ca3720a8e5c22e5ee70",
    "ghz5-complex-party2": "e3033a30b11828ac47f1b558810ba534f474fc6c093523566c073c3ab8a95805",
    "ghz10-real": "910525b615525a25cfdb793f5c724fd3a3e413b7887c3fb8abe38523154f0aa8",
    "bell4-complex-party1": "7caf06fe46bc316c69cd9ec636bc99049eddfaf5d460368899210efcb1bcd9b6",
    "bell6-zero-party3": "c8dc777d9362f64ee933d18d0f2be105a1cdb4aab1e4206cc12583215a233ac8",
    "p1-extreme": "11ae134ad8644a52bff53d65e6c9738d1b507397d9d91f4d66429952807169b8",
}


def _run_hexes(run):
    """Per branch: P and F, then the amplitudes' real and imaginary parts or
    "dead", each as ``float.hex``."""
    for branch in run.branches:
        yield branch.probability.hex()
        yield branch.fidelity.hex()
        if branch.receiver_state is None:
            yield "dead"
            continue
        for z in branch.receiver_state.amplitudes.tolist():
            yield z.real.hex()
            yield z.imag.hex()


@pytest.mark.parametrize("name", PINNED_CALLS)
def test_seeded_runs_match_their_pinned_bits(name):
    seed, call = PINNED_CALLS[name]
    run = call(haar_sample(np.random.default_rng(seed)))
    digest = hashlib.sha256("\n".join(_run_hexes(run)).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name]
