"""Tests for the BWAuth measurement loop (paper §4.2)."""

import pytest

from repro import quick_team
from repro.api import Campaign, default_execution_for, get_scenario
from repro.attacks.relays import ForgingRelayBehavior
from repro.core.bwauth import FlashFlowAuthority
from repro.core.measurer import Measurer
from repro.core.messages import SigningIdentity
from repro.core.params import FlashFlowParams
from repro.errors import AllocationError
from repro.netsim.hosts import Host, make_paper_hosts
from repro.netsim.latency import NetworkModel
from repro.tornet.relay import Relay
from repro.units import gbit, mbit


def test_needs_a_team():
    with pytest.raises(AllocationError):
        FlashFlowAuthority("b", team=[])


def test_rejects_duplicate_measurer_names():
    """Allocation keys capacities and grants by name: two measurers
    named alike would pool into one entry, so a 3 x 1 Gbit/s team
    would grant 2.6 Gbit/s for a 1.8 Gbit/s request."""
    team = [
        Measurer(
            name=name,
            host=Host(name=f"host{i}", link_capacity=gbit(1)),
            measured_capacity=gbit(1),
        )
        for i, name in enumerate(("m0", "m1", "m1"))
    ]
    with pytest.raises(AllocationError, match="m1"):
        FlashFlowAuthority("b", team=team)


def test_old_relay_single_round(team_auth):
    """A correct prior estimate concludes in one measurement (paper §4.2)."""
    relay = Relay.with_capacity("r", mbit(250), seed=1)
    estimate = team_auth.measure_relay(relay, initial_estimate=mbit(250))
    assert estimate.conclusive
    assert estimate.rounds == 1
    assert estimate.capacity == pytest.approx(mbit(250), rel=0.2)


def test_estimate_within_error_bounds(team_auth, params):
    """Accepted estimates land in ((1-eps1)x, (1+eps2)x)."""
    for cap_mbit, seed in ((10, 2), (100, 3), (500, 4), (750, 5)):
        relay = Relay.with_capacity(f"r{cap_mbit}", mbit(cap_mbit), seed=seed)
        estimate = team_auth.measure_relay(
            relay, initial_estimate=mbit(cap_mbit), seed_offset=seed
        )
        lo, hi = params.accuracy_interval(mbit(cap_mbit))
        assert lo <= estimate.capacity <= hi, cap_mbit


def test_underestimated_relay_doubles_up(team_auth):
    """A stale low estimate triggers retries with z0 = max(z, 2 z0)."""
    relay = Relay.with_capacity("r", mbit(400), seed=6)
    estimate = team_auth.measure_relay(relay, initial_estimate=mbit(50))
    assert estimate.conclusive
    assert estimate.rounds >= 2
    assert estimate.capacity == pytest.approx(mbit(400), rel=0.25)


def test_new_relay_uses_seed_estimate(team_auth, params):
    """New relays start from the 75th-percentile seed (51 Mbit/s)."""
    small = Relay.with_capacity("small", mbit(20), seed=7)
    estimate = team_auth.measure_relay(small)
    assert estimate.conclusive
    assert estimate.rounds == 1  # 51 Mbit/s seed covers a 20 Mbit/s relay


def test_new_big_relay_takes_more_rounds(team_auth):
    big = Relay.with_capacity("big", mbit(800), seed=8)
    estimate = team_auth.measure_relay(big)
    assert estimate.conclusive
    assert estimate.rounds > 1
    assert estimate.capacity == pytest.approx(mbit(800), rel=0.25)


def test_estimates_recorded(team_auth):
    relay = Relay.with_capacity("r", mbit(100), seed=9)
    estimate = team_auth.measure_relay(relay, initial_estimate=mbit(100))
    assert team_auth.estimates["r"] == estimate.capacity


def test_capacity_beyond_team_is_best_effort():
    """A relay bigger than the team can saturate is still measured, but
    marked inconclusive (the allocation was capped)."""
    auth = quick_team(n_measurers=1, capacity_each=mbit(400), seed=10)
    relay = Relay.with_capacity("huge", mbit(900), seed=11)
    estimate = auth.measure_relay(relay, initial_estimate=mbit(900))
    assert not estimate.conclusive
    assert estimate.capacity <= mbit(450)


def test_forger_fails_measurement(team_auth):
    relay = Relay.with_capacity(
        "forger", mbit(500), behavior=ForgingRelayBehavior(seed=1), seed=12
    )
    estimate = team_auth.measure_relay(relay, initial_estimate=mbit(500))
    assert estimate.failed
    assert estimate.capacity == 0.0


def test_admission_enforced_once_for_whole_retry_loop(team_auth):
    relay = Relay.with_capacity("r", mbit(100), seed=13)
    first = team_auth.measure_relay(
        relay, initial_estimate=mbit(100),
        enforce_admission=True, period_index=3,
    )
    assert not first.failed
    second = team_auth.measure_relay(
        relay, initial_estimate=mbit(100),
        enforce_admission=True, period_index=3,
    )
    assert second.failed


def test_invalid_initial_estimate(team_auth):
    relay = Relay.with_capacity("r", mbit(100))
    from repro.errors import MeasurementFailure

    with pytest.raises(MeasurementFailure):
        team_auth.measure_relay(relay, initial_estimate=0.0)


def test_measure_measurers_with_network():
    """§4.2: iPerf many-to-one estimates each measurer's capacity."""
    model = NetworkModel.paper_internet(seed=14)
    hosts = make_paper_hosts()
    team = [
        Measurer(name=name, host=hosts[name])
        for name in ("US-NW", "US-E", "NL")
    ]
    auth = FlashFlowAuthority("b", team, network=model, seed=15)
    results = auth.measure_measurers(duration=20)
    assert set(results) == {"US-NW", "US-E", "NL"}
    for name in ("US-NW", "US-E"):
        assert mbit(700) < results[name] <= gbit(1)
    # Estimates are stored on the measurers for allocation.
    for measurer in team:
        assert measurer.measured_capacity == results[measurer.name]


def test_measure_measurers_without_network_uses_link():
    team = [
        Measurer(name="solo", host=Host(name="solo", link_capacity=gbit(1)))
    ]
    auth = FlashFlowAuthority("b", team, seed=16)
    results = auth.measure_measurers()
    assert results["solo"] == gbit(1)


def test_campaign_generates_no_signing_key(monkeypatch):
    """No estimate reads a Schnorr key, so a campaign generates none:
    each costs a 2047-bit modular exponentiation. Transcript sessions
    take their identities as arguments."""
    keys = []
    original = SigningIdentity.__init__

    def counting(self, *args, **kwargs):
        keys.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SigningIdentity, "__init__", counting)
    report = Campaign(
        get_scenario("fig06-accuracy", n_relays=4),
        default_execution_for("fig06-accuracy"),
    ).run()
    assert report.estimates
    assert keys == []
