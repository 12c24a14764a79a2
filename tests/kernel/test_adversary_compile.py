"""Compiled-adversary oracle suite: exact equality vs the stateful path.

The four common §5 attack behaviours now carry kernel programs and
lower into the vectorized array walk. The contract is the same as for
honest relays: every outcome field, every per-second series, the
relay's settled state (bucket tokens, observed bandwidth, RNG stream
position), and the *behaviour's own* state (cheater ledger, forger
RNG/forge count, selective slot roll) must be exactly ``==`` to a twin
walked by the stateful reference (``tests/oracles/stateful_engine.py``).
"""

import pytest

from repro import quick_team
from repro.attacks.relays import (
    ForgingRelayBehavior,
    RatioCheatingRelayBehavior,
    SelectiveCapacityRelayBehavior,
    TrafficLiarRelayBehavior,
)
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine
from repro.core.engine import MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.units import mbit
from repro.tornet.relay import Relay
from tests.oracles.stateful_engine import stateful_run

BEHAVIORS = {
    "traffic-liar": lambda seed: TrafficLiarRelayBehavior(lie_factor=40.0),
    "ratio-cheater": lambda seed: RatioCheatingRelayBehavior(),
    # forge_fraction < 1 so the replay consumes a same-length random()
    # stream as the stateful echo path, mixing caught and clean cells.
    "forger": lambda seed: ForgingRelayBehavior(
        forge_fraction=0.4, seed=seed
    ),
    "selective-capacity": lambda seed: SelectiveCapacityRelayBehavior(
        seed=seed
    ),
}


@pytest.fixture
def team():
    return quick_team(seed=8).team


def _adversary_specs(team, make_behavior, seed0, n=4, background=mbit(25)):
    params = FlashFlowParams()
    specs = []
    for i in range(n):
        relay = Relay.with_capacity(
            f"adv{i}",
            mbit(90 + 45 * i),
            seed=seed0 + i,
            behavior=make_behavior(seed0 + 100 + i),
        )
        specs.append(
            MeasurementSpec(
                target=relay,
                assignments=allocate_capacity(
                    team, params.allocation_factor * mbit(90 + 45 * i)
                ),
                params=params,
                seed=seed0 + i,
                background_demand=background,
                enforce_admission=False,
            )
        )
    return specs


def _assert_outcomes_exactly_equal(kernel, stateful):
    assert len(kernel) == len(stateful)
    for a, b in zip(kernel, stateful):
        assert a.estimate == b.estimate
        assert a.per_second_measurement == b.per_second_measurement
        assert (
            a.per_second_background_reported
            == b.per_second_background_reported
        )
        assert (
            a.per_second_background_clamped == b.per_second_background_clamped
        )
        assert a.per_second_total == b.per_second_total
        assert a.total_allocated == b.total_allocated
        assert a.duration == b.duration
        assert a.failed == b.failed
        assert a.failure_reason == b.failure_reason
        assert a.cells_checked == b.cells_checked


def _assert_state_exactly_equal(spec_kernel, spec_stateful):
    rk, rs = spec_kernel.target, spec_stateful.target
    if rs.bucket is not None:
        assert rk.bucket.tokens == rs.bucket.tokens
    assert rk.observed_bw.observed() == rs.observed_bw.observed()
    # Same relay-RNG stream position: the next draws must coincide.
    assert rk._rng.random() == rs._rng.random()
    bk, bs = rk.behavior, rs.behavior
    if isinstance(bs, RatioCheatingRelayBehavior):
        assert bk._last_measurement_bytes == bs._last_measurement_bytes
    if isinstance(bs, (ForgingRelayBehavior, SelectiveCapacityRelayBehavior)):
        assert bk._rng.getstate() == bs._rng.getstate()
    if isinstance(bs, ForgingRelayBehavior):
        assert bk.cells_forged == bs.cells_forged
    if isinstance(bs, SelectiveCapacityRelayBehavior):
        assert bk._currently_active == bs._currently_active


@pytest.mark.parametrize("seed0", [11, 23])
@pytest.mark.parametrize("name", sorted(BEHAVIORS))
def test_compiled_adversary_matches_stateful_exactly(team, name, seed0):
    make = BEHAVIORS[name]
    specs_stateful = _adversary_specs(team, make, seed0)
    specs_kernel = _adversary_specs(team, make, seed0)

    stateful = [stateful_run(MeasurementEngine(), s) for s in specs_stateful]
    kernel = MeasurementEngine().run_many(specs_kernel)

    _assert_outcomes_exactly_equal(kernel, stateful)
    for sk, ss in zip(specs_kernel, specs_stateful):
        _assert_state_exactly_equal(sk, ss)


def _mixed_specs(team, seed0):
    specs = []
    for i, name in enumerate(sorted(BEHAVIORS) + [None, None]):
        make = BEHAVIORS[name] if name else (lambda seed: None)
        relay = Relay.with_capacity(
            f"mix{i}",
            mbit(100 + 30 * i),
            seed=seed0 + i,
            behavior=make(seed0 + 50 + i),
        )
        params = FlashFlowParams()
        specs.append(
            MeasurementSpec(
                target=relay,
                assignments=allocate_capacity(
                    team, params.allocation_factor * mbit(100 + 30 * i)
                ),
                params=params,
                seed=seed0 + i,
                background_demand=mbit(15),
                enforce_admission=False,
            )
        )
    return specs


def test_mixed_adversary_batch_matches_stateful(team):
    """All four attacks plus honest relays in one batch walk: failure
    truncation, forge counts and behaviour RNG state come out exactly
    as on the stateful path."""
    specs_stateful = _mixed_specs(team, 300)
    stateful = [stateful_run(MeasurementEngine(), s) for s in specs_stateful]
    specs_kernel = _mixed_specs(team, 300)
    kernel = MeasurementEngine().run_many(specs_kernel)
    _assert_outcomes_exactly_equal(kernel, stateful)
    for sk, ss in zip(specs_kernel, specs_stateful):
        _assert_state_exactly_equal(sk, ss)


def test_full_forger_fails_identically_everywhere(team):
    """forge_fraction=1.0: the first checked cell fails on both paths,
    with identical truncation, reason, estimate, and settled state."""
    make = BEHAVIORS["forger"]
    full = lambda seed: ForgingRelayBehavior(forge_fraction=1.0, seed=seed)
    del make
    specs_stateful = _adversary_specs(team, full, 61, n=2)
    specs_kernel = _adversary_specs(team, full, 61, n=2)
    stateful = [stateful_run(MeasurementEngine(), s) for s in specs_stateful]
    kernel = MeasurementEngine().run_many(specs_kernel)
    assert all(o.failed for o in stateful)
    assert all(o.estimate == 0.0 for o in stateful)
    _assert_outcomes_exactly_equal(kernel, stateful)
    for sk, ss in zip(specs_kernel, specs_stateful):
        _assert_state_exactly_equal(sk, ss)
