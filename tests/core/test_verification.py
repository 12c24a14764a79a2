"""Tests for echo-cell verification (paper §4.1/§5)."""

import random

import pytest

from repro.attacks.relays import ForgingRelayBehavior
from repro.core.verification import detection_probability
from repro.errors import VerificationFailure
from repro.tornet.relay import Relay
from repro.units import CELL_LEN, mbit
from tests.oracles.stateful_engine import EchoVerifier


def _verifier(p=1e-5, seed=0):
    return EchoVerifier(p, random.Random(seed))


def test_detection_probability_closed_form():
    assert detection_probability(1e-5, 0) == 0.0
    assert detection_probability(1e-5, 100_000) == pytest.approx(
        1 - (1 - 1e-5) ** 100_000
    )
    assert detection_probability(1.0, 1) == 1.0


def test_detection_probability_validation():
    with pytest.raises(ValueError):
        detection_probability(2.0, 1)
    with pytest.raises(ValueError):
        detection_probability(0.5, -1)


def test_honest_relay_passes_checks():
    relay = Relay.with_capacity("honest", mbit(100))
    verifier = _verifier(p=1.0)
    checked = verifier.check_cells(relay, 50)
    assert checked == 50
    assert verifier.cells_failed == 0


def test_forging_relay_caught():
    relay = Relay.with_capacity(
        "forger", mbit(100), behavior=ForgingRelayBehavior(seed=1)
    )
    verifier = _verifier(p=1.0)
    with pytest.raises(VerificationFailure) as excinfo:
        verifier.check_cells(relay, 10)
    assert excinfo.value.relay_fingerprint == "forger"
    assert verifier.cells_failed == 1


def test_partial_forger_eventually_caught():
    relay = Relay.with_capacity(
        "sneaky", mbit(100),
        behavior=ForgingRelayBehavior(forge_fraction=0.3, seed=2),
    )
    verifier = _verifier(p=1.0, seed=3)
    with pytest.raises(VerificationFailure):
        verifier.check_cells(relay, 200)


def test_sample_count_zero_for_no_cells():
    assert _verifier().sample_count(0) == 0


def test_sample_count_statistics():
    """At 1 Gbit/s (~243k cells/s) and p = 1e-5, ~2.4 checks/second."""
    verifier = _verifier(p=1e-5, seed=4)
    cells_per_second = int(1e9 / 8 / CELL_LEN)
    samples = [verifier.sample_count(cells_per_second) for _ in range(500)]
    mean = sum(samples) / len(samples)
    assert 1.5 < mean < 3.5


def test_sample_count_never_exceeds_cells():
    verifier = _verifier(p=0.9, seed=5)
    for _ in range(100):
        assert verifier.sample_count(3) <= 3


def test_verify_second_with_zero_bytes():
    relay = Relay.with_capacity("r", mbit(100))
    assert _verifier().verify_second(relay, 0.0) == 0


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        _verifier(p=1.5)


def test_evasion_probability_matches_paper_example():
    """§5: forging k responses evades with probability (1-p)^k; at the
    paper's p = 1e-5, forging one second of gigabit traffic (~243k
    cells) is caught with probability ~91%."""
    cells = int(1e9 / 8 / CELL_LEN)
    assert detection_probability(1e-5, cells) > 0.90
