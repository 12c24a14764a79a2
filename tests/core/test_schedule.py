"""Tests for measurement scheduling (paper §4.3)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.params import FlashFlowParams
from repro.core.schedule import (
    PeriodSchedule,
    first_fit_slots,
    greedy_pack_slots,
)
from repro.errors import ScheduleError
from repro.tornet.authority import SharedRandomness
from repro.units import gbit, mbit
from tests.oracles.slot_pack import reference_first_fit


@pytest.fixture
def params():
    return FlashFlowParams()


def _estimates(n=50, seed=1):
    import random

    rng = random.Random(seed)
    return {f"r{i}": mbit(rng.uniform(5, 500)) for i in range(n)}


def test_every_old_relay_scheduled(params):
    estimates = _estimates()
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"x" * 32)
    assert set(schedule.assignments) == set(estimates)


def test_same_seed_same_schedule(params):
    estimates = _estimates()
    seed = SharedRandomness.run_round(["a", "b", "c"], seed=1)
    s1 = PeriodSchedule.build(params, gbit(3), estimates, seed=seed)
    s2 = PeriodSchedule.build(params, gbit(3), estimates, seed=seed)
    assert {f: a.slot for f, a in s1.assignments.items()} == {
        f: a.slot for f, a in s2.assignments.items()
    }


def test_different_seed_different_schedule(params):
    estimates = _estimates(n=100)
    s1 = PeriodSchedule.build(params, gbit(3), estimates, seed=b"a" * 32)
    s2 = PeriodSchedule.build(params, gbit(3), estimates, seed=b"b" * 32)
    slots1 = {f: a.slot for f, a in s1.assignments.items()}
    slots2 = {f: a.slot for f, a in s2.assignments.items()}
    assert slots1 != slots2


def test_no_slot_over_capacity(params):
    estimates = _estimates(n=200, seed=2)
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"y" * 32)
    for slot, load in schedule.slot_load.items():
        assert load <= schedule.team_capacity + 1e-6


def test_slots_are_randomized(params):
    """Slots spread across the whole period, not packed at the front."""
    estimates = _estimates(n=100, seed=3)
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"z" * 32)
    slots = [a.slot for a in schedule.assignments.values()]
    assert max(slots) > params.slots_per_period // 2
    assert len(set(slots)) > 50


def test_new_relay_fcfs(params):
    estimates = _estimates(n=5, seed=4)
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"q" * 32)
    a1 = schedule.add_new_relay("new1", mbit(51), earliest_slot=100)
    a2 = schedule.add_new_relay("new2", mbit(51), earliest_slot=100)
    assert a1.is_new and a2.is_new
    assert a1.slot >= 100
    assert a2.slot >= a1.slot  # first come, first served


def test_new_relay_capacity_respected(params):
    # Tiny team: one new relay fills a slot entirely.
    small_params = FlashFlowParams(slot_seconds=30, period_seconds=90)
    schedule = PeriodSchedule(
        params=small_params, team_capacity=mbit(160), seed=b"s" * 32
    )
    a1 = schedule.add_new_relay("n1", mbit(50))
    a2 = schedule.add_new_relay("n2", mbit(50))
    assert a1.slot != a2.slot  # each needs f*50 = ~148 of the 160 capacity


def test_schedule_full_raises(params):
    small_params = FlashFlowParams(slot_seconds=30, period_seconds=60)
    schedule = PeriodSchedule(
        params=small_params, team_capacity=mbit(160), seed=b"t" * 32
    )
    schedule.add_new_relay("n1", mbit(50))
    schedule.add_new_relay("n2", mbit(50))
    with pytest.raises(ScheduleError):
        schedule.add_new_relay("n3", mbit(50))


def test_duplicate_relay_rejected(params):
    estimates = {"r0": mbit(100)}
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"u" * 32)
    with pytest.raises(ScheduleError):
        schedule.add_new_relay("r0", mbit(100))


def test_oversized_relay_gets_full_team_slot(params):
    """A relay whose f*z0 exceeds team capacity still gets scheduled,
    occupying a whole slot."""
    estimates = {"huge": gbit(2), "small": mbit(10)}
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"v" * 32)
    huge = schedule.assignments["huge"]
    assert huge.required_capacity == pytest.approx(gbit(3))


def test_greedy_pack_largest_first(params):
    estimates = {"a": mbit(900), "b": mbit(900), "c": mbit(10), "d": mbit(10)}
    slots = greedy_pack_slots(estimates, params, gbit(3))
    # f*900 = 2.66G: one big relay per slot, small ones fill the gaps.
    assert len(slots) == 2
    assert slots[0][0] == "a" or slots[0][0] == "b"


def test_greedy_pack_capacity_respected(params):
    estimates = _estimates(n=100, seed=5)
    slots = greedy_pack_slots(estimates, params, gbit(3))
    for slot in slots:
        load = sum(
            min(params.allocation_factor * estimates[f], gbit(3))
            for f in slot
        )
        assert load <= gbit(3) + 1e-6


def test_greedy_pack_all_relays_covered(params):
    estimates = _estimates(n=75, seed=6)
    slots = greedy_pack_slots(estimates, params, gbit(3))
    packed = [f for slot in slots for f in slot]
    assert sorted(packed) == sorted(estimates)


@given(
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_greedy_pack_properties(n, seed):
    """Every relay packed exactly once; no slot over team capacity."""
    import random

    rng = random.Random(seed)
    params = FlashFlowParams()
    estimates = {f"r{i}": mbit(rng.uniform(1, 998)) for i in range(n)}
    slots = greedy_pack_slots(estimates, params, gbit(3))
    packed = [f for slot in slots for f in slot]
    assert sorted(packed) == sorted(estimates)
    for slot in slots:
        load = sum(
            min(params.allocation_factor * estimates[f], gbit(3))
            for f in slot
        )
        assert load <= gbit(3) + 1e-6


def test_first_fit_takes_in_queue_order_within_tolerance():
    # First fit, not largest fit: with 1.0 left after index 0, slot 0
    # takes the 1.0 at index 2 ahead of the larger 1.0 + 5e-7, which
    # misses the 0.0 residual but fits slot 1's 1.0 within 1e-6.
    assert first_fit_slots([2.0, 2.0, 1.0, 1.0 + 5e-7, 0.5], 3.0) == [
        [0, 2],
        [1, 3],
        [4],
    ]


def test_first_fit_nan_never_fits_but_gets_a_slot_of_its_own():
    assert first_fit_slots([math.nan, 1.0, math.nan], 3.0) == [[1], [0], [2]]


_CAPACITIES = (gbit(3), 1.0)
_FRACTIONS = (1.0, 1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4)
_NUDGES = (0.0, 5e-7, -5e-7, 1e-6, -1e-6, 2e-6, -2e-6)


@st.composite
def _pack_cases(draw):
    """Queues whose entries tie, sit within 1e-6 of a residual, equal
    the capacity, exceed it, or are NaN; in retry (any) or
    prior-descending order."""
    capacity = draw(st.sampled_from(_CAPACITIES))
    near_a_residual = [
        capacity * fraction + nudge
        for fraction in _FRACTIONS
        for nudge in _NUDGES
    ]
    requirement = st.one_of(
        st.sampled_from(near_a_residual + [math.nan]),
        st.floats(min_value=-capacity, max_value=2 * capacity),
    )
    requirements = draw(st.lists(requirement, max_size=32))
    if draw(st.booleans()):
        requirements.sort(key=lambda r: r if r == r else -1.0, reverse=True)
    return requirements, capacity


@given(case=_pack_cases())
@example(case=([], gbit(3)))
@example(case=([gbit(3)], gbit(3)))
@example(case=([math.nan], gbit(3)))
@settings(max_examples=150, deadline=None)
def test_first_fit_slots_matches_queue_rescan(case):
    requirements, capacity = case
    assert first_fit_slots(requirements, capacity) == reference_first_fit(
        requirements, capacity
    )


# ---------------------------------------------------------------------------
# Churn-aware schedule surgery (remove_relay / reslot_relay)
# ---------------------------------------------------------------------------

def test_remove_relay_releases_slot_capacity(params):
    estimates = _estimates(n=20)
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"x" * 32)
    victim = next(iter(schedule.assignments))
    slot = schedule.assignments[victim].slot
    residual_before = schedule.residual(slot)
    removed = schedule.remove_relay(victim)
    assert removed.fingerprint == victim
    assert victim not in schedule.assignments
    assert schedule.residual(slot) == pytest.approx(
        residual_before + removed.required_capacity
    )


def test_remove_last_relay_in_slot_frees_it_entirely(params):
    schedule = PeriodSchedule.build(
        params, gbit(3), {"only": mbit(100)}, seed=b"y" * 32
    )
    slot = schedule.assignments["only"].slot
    schedule.remove_relay("only")
    assert schedule.slots_in_use() == 0
    assert schedule.residual(slot) == schedule.team_capacity
    # The freed slot is immediately reusable at full capacity.
    schedule.add_new_relay("replacement", mbit(100))
    assert schedule.assignments["replacement"].slot == 0


def test_remove_unknown_relay_raises(params):
    schedule = PeriodSchedule.build(
        params, gbit(3), {"a": mbit(10)}, seed=b"z" * 32
    )
    with pytest.raises(ScheduleError):
        schedule.remove_relay("never-scheduled")


def test_remove_then_readd_round_trips(params):
    estimates = _estimates(n=30)
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"q" * 32)
    loads_before = dict(schedule.slot_load)
    removed = schedule.remove_relay("r7")
    schedule._place(removed)
    assert dict(schedule.slot_load) == loads_before
    assert schedule.assignments["r7"] == removed


def test_reslot_pulls_relay_into_freed_capacity(params):
    # Fill slot 0 completely, forcing the next new relay into slot 1;
    # once the blocker leaves, reslotting pulls it back to slot 0.
    tight = FlashFlowParams()
    schedule = PeriodSchedule(
        params=tight, team_capacity=gbit(1), seed=b"s" * 32
    )
    schedule.add_new_relay("blocker", gbit(1) / tight.allocation_factor)
    assert schedule.assignments["blocker"].slot == 0
    schedule.add_new_relay("late", mbit(50))
    assert schedule.assignments["late"].slot == 1
    schedule.remove_relay("blocker")
    moved = schedule.reslot_relay("late")
    assert moved.slot == 0
    assert schedule.assignments["late"].slot == 0
    assert moved.is_new


def test_reslot_preserves_required_capacity_exactly(params):
    estimates = _estimates(n=10)
    schedule = PeriodSchedule.build(params, gbit(3), estimates, seed=b"r" * 32)
    before = schedule.assignments["r3"].required_capacity
    moved = schedule.reslot_relay("r3", earliest_slot=0)
    assert moved.required_capacity == before


def test_reslot_failure_restores_original_assignment(params):
    tight = FlashFlowParams(
        slot_seconds=FlashFlowParams().period_seconds,
    )
    schedule = PeriodSchedule(
        params=tight, team_capacity=gbit(1), seed=b"t" * 32
    )
    # One slot total, fully occupied: re-slotting past it cannot succeed.
    schedule.add_new_relay("only", gbit(1) / tight.allocation_factor)
    original = schedule.assignments["only"]
    with pytest.raises(ScheduleError):
        schedule.reslot_relay("only", earliest_slot=1)
    assert schedule.assignments["only"] == original
    assert schedule.slot_load[original.slot] == pytest.approx(
        original.required_capacity
    )
