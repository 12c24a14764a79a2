"""Tests for greedy measurer-capacity allocation (paper §4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import TeamCapacity, allocate_capacity, total_allocated
from repro.core.measurer import Measurer, socket_shares, sufficient_team, team_capacity
from repro.errors import AllocationError, ConfigurationError
from repro.netsim.hosts import Host
from repro.units import gbit, mbit
from tests.oracles.allocation import reference_allocate


def _team(*capacities):
    return [
        Measurer(
            name=f"m{i}",
            host=Host(name=f"m{i}", link_capacity=c),
            measured_capacity=c,
        )
        for i, c in enumerate(capacities)
    ]


def test_allocation_sums_to_required():
    team = _team(gbit(1), gbit(1), gbit(1))
    assignments = allocate_capacity(team, mbit(700))
    assert total_allocated(assignments) == pytest.approx(mbit(700))


def test_greedy_prefers_most_residual():
    team = _team(gbit(2), gbit(1))
    assignments = allocate_capacity(team, mbit(500))
    by_name = {a.measurer.name: a.allocated for a in assignments}
    assert by_name["m0"] == pytest.approx(mbit(500))
    assert by_name["m1"] == 0.0


def test_zero_allocation_means_not_participating():
    team = _team(gbit(2), gbit(1))
    assignments = allocate_capacity(team, mbit(100))
    flags = [a.participates for a in assignments]
    assert flags == [True, False]


def test_allocation_spills_to_second_measurer():
    team = _team(gbit(1), gbit(1))
    assignments = allocate_capacity(team, mbit(1500))
    by_name = {a.measurer.name: a.allocated for a in assignments}
    assert by_name["m0"] == pytest.approx(gbit(1))
    assert by_name["m1"] == pytest.approx(mbit(500))


def test_insufficient_team_raises():
    team = _team(mbit(100))
    with pytest.raises(AllocationError):
        allocate_capacity(team, mbit(500))


def test_negative_request_rejected():
    with pytest.raises(AllocationError):
        allocate_capacity(_team(gbit(1)), -1.0)


def test_residual_accounting_for_concurrent_measurements():
    team = _team(gbit(1))
    team[0].commit(mbit(800))
    with pytest.raises(AllocationError):
        allocate_capacity(team, mbit(300))
    assignments = allocate_capacity(team, mbit(200))
    assert total_allocated(assignments) == pytest.approx(mbit(200))
    team[0].release(mbit(800))
    assignments = allocate_capacity(team, mbit(900))
    assert total_allocated(assignments) == pytest.approx(mbit(900))


def test_commit_beyond_residual_rejected():
    team = _team(mbit(100))
    with pytest.raises(ConfigurationError):
        team[0].commit(mbit(200))


def test_team_capacity_and_sufficiency():
    team = _team(gbit(1), gbit(1), gbit(1))
    assert team_capacity(team) == pytest.approx(gbit(3))
    # Paper §7: 3 Gbit/s team vs max relay 998 Mbit/s at f = 2.84-2.95.
    assert sufficient_team(team, mbit(998), allocation_factor=2.953)
    assert not sufficient_team(team, mbit(1200), allocation_factor=2.953)


def test_socket_shares_even_split():
    assert socket_shares(160, 3) == [54, 53, 53]
    assert sum(socket_shares(160, 3)) == 160


def test_socket_shares_one_measurer():
    assert socket_shares(160, 1) == [160]


def test_socket_shares_invalid():
    with pytest.raises(ConfigurationError):
        socket_shares(160, 0)


def test_spawn_processes_rate_split():
    team = _team(gbit(1))
    processes = team[0].spawn_processes(mbit(600), socket_share=54)
    assert len(processes) == team[0].host.cpu_cores
    total_rate = sum(p.rate_limit for p in processes)
    assert total_rate == pytest.approx(mbit(600))


def test_spawn_processes_always_at_least_one():
    measurer = Measurer(
        name="m",
        host=Host(name="m", link_capacity=gbit(1), cpu_cores=0),
        measured_capacity=gbit(1),
    )
    assert len(measurer.spawn_processes(mbit(100), 10)) == 1


@given(
    capacities=st.lists(
        st.floats(min_value=1e6, max_value=5e9), min_size=1, max_size=6
    ),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_allocation_properties(capacities, fraction):
    """Property: sum(a_i) = required, 0 <= a_i <= c_i (paper §4.2)."""
    team = _team(*capacities)
    required = sum(capacities) * fraction
    assignments = allocate_capacity(team, required)
    assert total_allocated(assignments) == pytest.approx(
        required, rel=1e-6, abs=1e-5
    )
    for a in assignments:
        assert -1e-9 <= a.allocated <= a.measurer.capacity + 1e-6


#: Capacities drawn from a short list make equal capacities (greedy
#: ties) common; the float range covers everything else.
_CAPACITY = st.one_of(
    st.sampled_from([mbit(100), mbit(250), gbit(1), gbit(2.5)]),
    st.floats(min_value=1e6, max_value=5e9),
)


@st.composite
def _committed_team(draw):
    """1-6 uniquely named measurers, some residuals cut by ``commit``."""
    team = _team(*draw(st.lists(_CAPACITY, min_size=1, max_size=6)))
    for measurer in team:
        cut = draw(st.sampled_from(["none", "all", "part"]))
        if cut == "all":
            measurer.commit(measurer.capacity)
        elif cut == "part":
            measurer.commit(
                measurer.capacity * draw(st.floats(min_value=0.0, max_value=1.0))
            )
    return team


def _outcome(allocate, required):
    """The grants as ``(measurer, allocated)`` in team order, or the error."""
    try:
        return [(a.measurer, a.allocated) for a in allocate(required)]
    except AllocationError:
        return AllocationError


@given(
    team=_committed_team(),
    use_residual=st.booleans(),
    fractions=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.05),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=200, deadline=None)
def test_allocation_matches_the_reference_greedy(team, use_residual, fractions):
    """Grants are ``==`` the historical max-per-grant loop, errors alike,
    and one capacity read serves any number of requests."""
    total = sum(
        m.residual_capacity if use_residual else m.capacity for m in team
    )
    # Up to just above the team total: the last two straddle the 1e-6
    # slack of the up-front check.
    requirements = [total * f for f in fractions] + [
        total, total + 5e-7, total + 2e-6,
    ]
    shared = TeamCapacity(team, use_residual)
    for required in requirements:
        expected = _outcome(
            lambda r: reference_allocate(team, r, use_residual), required
        )
        one_shot = _outcome(
            lambda r: allocate_capacity(team, r, use_residual), required
        )
        assert one_shot == expected
        assert _outcome(shared.allocate, required) == one_shot
