"""Keystream caching regression: verification results are unchanged.

The per-(counter, length) keystream span cache in
:class:`repro.tornet.relaycrypto.CircuitKey` must be invisible: the same
bytes as an uncached computation, byte-identical repeated calls, correct
detection of forged echoes, and unchanged ``cells_checked`` accounting
in the reference ``EchoVerifier`` (``tests/oracles/stateful_engine.py``).
"""

import hashlib

from repro import quick_team
from repro.attacks.relays import ForgingRelayBehavior
from repro.core.allocation import allocate_capacity
from repro.core.measurement import run_measurement
from repro.core.params import FlashFlowParams
from repro.core.verification import sample_cell_count
from repro.errors import VerificationFailure
from repro.rng import fork
from repro.tornet.relaycrypto import (
    _KEYSTREAM_BLOCK,
    CircuitKey,
    establish_circuit_key,
)
from repro.tornet.relay import Relay
from repro.units import mbit
from tests.oracles.stateful_engine import EchoVerifier


def _uncached_keystream(key_bytes: bytes, counter: int, length: int) -> bytes:
    """The original block-by-block derivation, inlined as the oracle."""
    blocks = []
    needed = length
    index = counter
    while needed > 0:
        blocks.append(
            hashlib.sha256(key_bytes + index.to_bytes(8, "big")).digest()
        )
        needed -= _KEYSTREAM_BLOCK
        index += 1
    return b"".join(blocks)[:length]


def test_keystream_matches_uncached_oracle():
    key = CircuitKey(bytes(range(32)))
    for counter, length in [(0, 1), (0, 32), (3, 509), (1000, 64), (7, 100)]:
        expected = _uncached_keystream(bytes(range(32)), counter, length)
        assert key.keystream(counter, length) == expected
        # Second call is served from cache; must be byte-identical.
        assert key.keystream(counter, length) == expected


def test_process_roundtrip_and_cache_reuse():
    key = CircuitKey(b"\x42" * 32)
    payload = bytes(509)
    for index in (0, 1, 5, 5, 1, 0):  # revisits hit the cache
        encrypted = key.process(payload, index)
        assert key.process(encrypted, index) == payload
        assert encrypted != payload


def test_repeated_check_cells_results_unchanged():
    """Same circuit key, repeated verification: identical outcomes."""
    client_key, relay_key = establish_circuit_key()
    relay = Relay.with_capacity("r", mbit(100), seed=1)
    verifier_a = EchoVerifier(1.0, fork(1, "verify-a"), key=client_key)
    checked_a = verifier_a.check_cells(relay, 40)
    verifier_b = EchoVerifier(1.0, fork(1, "verify-b"), key=relay_key)
    checked_b = verifier_b.check_cells(relay, 40)
    assert checked_a == checked_b == 40
    assert verifier_a.cells_checked == verifier_b.cells_checked == 40
    assert verifier_a.cells_failed == verifier_b.cells_failed == 0


def test_forged_echo_still_detected_with_warm_cache():
    """A warm keystream cache must not mask forged payloads."""
    params = FlashFlowParams()
    authority = quick_team(seed=7)
    forger = Relay.with_capacity(
        "forger", mbit(500), behavior=ForgingRelayBehavior(seed=1), seed=70
    )
    # Warm the shared key's cache with an honest measurement first.
    honest = Relay.with_capacity("honest", mbit(500), seed=71)
    ok = run_measurement(
        honest,
        allocate_capacity(authority.team, params.allocation_factor * mbit(500)),
        params,
        seed=71,
    )
    assert not ok.failed
    outcome = run_measurement(
        forger,
        allocate_capacity(authority.team, params.allocation_factor * mbit(500)),
        params,
        seed=72,
    )
    assert outcome.failed
    assert outcome.cells_checked >= 1


def test_sample_cell_count_matches_verifier_method():
    """The extracted module function is the method's draw-for-draw twin."""
    key, _ = establish_circuit_key()
    for p_check, cells in [(1e-5, 250_000), (0.5, 20), (1.0, 3), (1e-5, 0)]:
        verifier = EchoVerifier(p_check, fork(9, "verify-twin"), key=key)
        rng = fork(9, "verify-twin")
        for _ in range(50):
            assert verifier.sample_count(cells) \
                == sample_cell_count(rng, cells, p_check)


def test_direct_forgery_via_verifier_raises():
    client_key, _ = establish_circuit_key()
    forger = Relay.with_capacity(
        "forger", mbit(100), behavior=ForgingRelayBehavior(seed=3), seed=3
    )
    verifier = EchoVerifier(1.0, fork(3, "verify"), key=client_key)
    try:
        verifier.check_cells(forger, 10)
    except VerificationFailure as failure:
        assert failure.relay_fingerprint == "forger"
        assert verifier.cells_failed == 1
    else:  # pragma: no cover
        raise AssertionError("forged echoes must fail verification")
