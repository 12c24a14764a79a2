"""Failure-injection tests: the system degrades safely, never silently.

Covers: relays that refuse or die mid-campaign, measurer capacity loss
between periods, verification disabled (and why that is dangerous),
stale descriptors, and protocol-message tampering under replay.
"""

import pytest

from repro import quick_team
from repro.attacks.relays import ForgingRelayBehavior
from repro.core.aggregation import aggregate_bwauth_votes
from repro.core.measurement import run_measurement
from repro.core.allocation import allocate_capacity
from repro.core.netmeasure import measure_network
from repro.core.params import FlashFlowParams
from repro.errors import AllocationError, ConfigurationError
from repro.tornet.network import TorNetwork
from repro.tornet.relay import Relay, RelayBehavior
from repro.units import mbit


class DyingRelayBehavior(RelayBehavior):
    """A relay that loses all capacity partway through a measurement.

    Its capacity changes from one call to the next, which no kernel
    program can express, so it publishes none.
    """

    name = "dying"

    def __init__(self, dies_after_calls: int = 10):
        self.dies_after = dies_after_calls
        self._calls = 0

    def capacity_factor(self, being_measured: bool, relay: Relay) -> float:
        self._calls += 1
        return 0.0 if self._calls > self.dies_after else 1.0


def test_relay_dying_mid_slot_yields_low_median(team_auth, params):
    """A behaviour that changes capacity within a slot cannot be lowered
    into the kernel walk, and there is no other walk to fall back to:
    the measurement is refused with an error naming the relay and the
    behaviour class, before the relay admits it."""
    relay = Relay.with_capacity(
        "dying", mbit(200), behavior=DyingRelayBehavior(10), seed=1
    )
    assignments = allocate_capacity(team_auth.team, mbit(600))
    with pytest.raises(
        ConfigurationError, match="'dying'.*DyingRelayBehavior"
    ):
        run_measurement(relay, assignments, params, seed=2)
    assert relay.accept_measurement("bwauth0", 0)


def test_campaign_with_refusing_relay():
    """A relay already measured this period refuses; the campaign
    records the failure and continues."""
    network = TorNetwork()
    for i in range(4):
        network.add(Relay.with_capacity(f"r{i}", mbit(50), seed=i))
    network["r0"].accept_measurement("bwauth0", 0)  # pre-burn the slot

    auth = quick_team(seed=3)
    params = auth.params
    # Force admission checking through run_measurement directly.
    assignments = allocate_capacity(auth.team, mbit(150))
    refused = run_measurement(
        network["r0"], assignments, params,
        bwauth_id="bwauth0", period_index=0,
        enforce_admission=True, seed=4,
    )
    assert refused.failed
    ok = run_measurement(
        network["r1"], assignments, params,
        bwauth_id="bwauth0", period_index=0,
        enforce_admission=True, seed=5,
    )
    assert not ok.failed


def test_measurer_capacity_loss_between_periods():
    """A measurer degrading between periods shrinks what is measurable;
    requesting beyond the degraded team fails loudly."""
    auth = quick_team(n_measurers=2, capacity_each=mbit(500), seed=6)
    relay = Relay.with_capacity("r", mbit(300), seed=7)
    first = auth.measure_relay(relay, initial_estimate=mbit(300))
    assert first.conclusive

    auth.team[0].measured_capacity = mbit(50)  # host degraded
    big = Relay.with_capacity("big", mbit(300), seed=8)
    second = auth.measure_relay(big, initial_estimate=mbit(300))
    # Team now supplies 550 < f*300: best-effort, flagged inconclusive.
    assert not second.conclusive


def test_disabled_verification_lets_forgers_win(team_auth, params):
    """Ablation: without echo checks a forger gets a (boosted) estimate --
    exactly the attack verification exists to stop."""
    forger = Relay.with_capacity(
        "forger", mbit(300), behavior=ForgingRelayBehavior(seed=9), seed=9
    )
    assignments = allocate_capacity(
        team_auth.team, params.allocation_factor * mbit(300)
    )
    outcome = run_measurement(
        forger, assignments, params, verify=False, seed=10
    )
    assert not outcome.failed
    assert outcome.estimate > mbit(300)  # the forged CPU saving pays off


def test_majority_rule_with_partial_bwauth_coverage():
    """Relays measured by fewer than a majority of BWAuths stay out of
    the consensus (paper §2)."""
    votes = {
        "b0": {"r1": mbit(100), "r2": mbit(50)},
        "b1": {"r1": mbit(105)},
        "b2": {"r1": mbit(95)},
    }
    aggregated = aggregate_bwauth_votes(votes)
    assert "r1" in aggregated
    assert "r2" not in aggregated  # only one vote


def test_campaign_all_relays_malicious():
    """Even a fully malicious network produces explicit failures, not
    bogus estimates."""
    network = TorNetwork()
    for i in range(3):
        network.add(
            Relay.with_capacity(
                f"f{i}", mbit(100),
                behavior=ForgingRelayBehavior(seed=i), seed=20 + i,
            )
        )
    auth = quick_team(seed=21)
    campaign = measure_network(network, auth, full_simulation=True)
    assert not campaign.estimates
    assert set(campaign.failures) == {"f0", "f1", "f2"}


def test_allocation_error_propagates_from_oversized_request():
    auth = quick_team(n_measurers=1, capacity_each=mbit(100), seed=22)
    with pytest.raises(AllocationError):
        allocate_capacity(auth.team, mbit(500))


def test_zero_capacity_network_is_rejected_cleanly():
    params = FlashFlowParams()
    from repro.core.schedule import PeriodSchedule
    from repro.errors import ScheduleError

    with pytest.raises(ScheduleError):
        PeriodSchedule(params=params, team_capacity=0.0, seed=b"x" * 32)
