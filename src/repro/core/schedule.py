"""Measurement scheduling (paper §4.3).

Each 24-hour period is divided into t-second slots. Before a period
starts, the BWAuths derive a shared random seed (Tor's shared-randomness
protocol); each then locally computes the same schedule:

- every *old* relay gets a slot chosen uniformly at random among slots with
  enough unallocated team capacity for ``f * z0``;
- *new* relays are measured first-come-first-served in the earliest slots
  with sufficient residual capacity.

The schedule is secret (derived from the private seed), which prevents
both selective-capacity relays and targeted denial-of-service (§5).

:func:`greedy_pack_slots` implements the §7 efficiency scheduler: pack
relays largest-first into consecutive slots to find the *fastest* the
network can be measured. :func:`first_fit_slots` is the campaign's
policy: pack a waiting queue first-fit in queue order.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.params import FlashFlowParams
from repro.errors import ScheduleError


@dataclass
class SlotAssignment:
    """One relay's scheduled measurement."""

    fingerprint: str
    slot: int
    required_capacity: float
    is_new: bool = False


@dataclass
class PeriodSchedule:
    """A full measurement period's schedule for one BWAuth."""

    params: FlashFlowParams
    team_capacity: float
    seed: bytes
    assignments: dict[str, SlotAssignment] = field(default_factory=dict)
    slot_load: dict[int, float] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.team_capacity <= 0:
            raise ScheduleError("team capacity must be positive")
        # Dense mirror of ``slot_load`` for vectorised feasibility scans;
        # loads are accumulated exactly like the dict (same float adds).
        self._loads = np.zeros(self.n_slots, dtype=float)
        for slot, load in self.slot_load.items():
            if 0 <= slot < self._loads.size:
                self._loads[slot] = load

    @property
    def n_slots(self) -> int:
        return self.params.slots_per_period

    def residual(self, slot: int) -> float:
        return self.team_capacity - self.slot_load.get(slot, 0.0)

    def _place(self, assignment: SlotAssignment) -> None:
        if assignment.fingerprint in self.assignments:
            raise ScheduleError(
                f"{assignment.fingerprint} already scheduled this period"
            )
        if assignment.required_capacity > self.residual(assignment.slot) + 1e-6:
            raise ScheduleError(
                f"slot {assignment.slot} lacks capacity for "
                f"{assignment.fingerprint}"
            )
        self.assignments[assignment.fingerprint] = assignment
        self.slot_load[assignment.slot] = (
            self.slot_load.get(assignment.slot, 0.0)
            + assignment.required_capacity
        )
        if 0 <= assignment.slot < self._loads.size:
            self._loads[assignment.slot] = self.slot_load[assignment.slot]

    @classmethod
    def build(
        cls,
        params: FlashFlowParams,
        team_capacity: float,
        estimates: dict[str, float],
        seed: bytes,
    ) -> "PeriodSchedule":
        """Schedule every old relay at a random feasible slot.

        ``estimates`` maps fingerprint -> existing capacity estimate z0.
        Required slot capacity per relay is ``min(f * z0, team capacity)``
        (a relay guessed above what the team can supply still gets its
        best-effort full-team slot).
        """
        schedule = cls(params=params, team_capacity=team_capacity, seed=seed)
        rng = random.Random(seed)
        order = sorted(estimates)  # determinism: same seed => same schedule
        rng.shuffle(order)
        for fingerprint in order:
            required = min(
                params.allocation_factor * max(estimates[fingerprint], 1.0),
                team_capacity,
            )
            # Vectorised feasibility scan over all slots; elementwise this
            # is the same ``residual(slot) + 1e-6 >= required`` test, and
            # rng.choice draws exactly one value either way, keeping the
            # schedule identical to the per-slot Python loop.
            feasible = np.flatnonzero(
                (team_capacity - schedule._loads) + 1e-6 >= required
            )
            if feasible.size == 0:
                raise ScheduleError(
                    f"no slot can hold {fingerprint} "
                    f"(needs {required:.0f} bit/s)"
                )
            slot = int(rng.choice(feasible))
            schedule._place(
                SlotAssignment(
                    fingerprint=fingerprint,
                    slot=slot,
                    required_capacity=required,
                )
            )
        return schedule

    def add_new_relay(self, fingerprint: str, z0: float,
                      earliest_slot: int = 0) -> SlotAssignment:
        """Schedule a newly appeared relay FCFS (paper §4.3).

        New relays take the first slot at/after ``earliest_slot`` (their
        arrival time) with enough residual capacity.
        """
        required = min(
            self.params.allocation_factor * max(z0, 1.0), self.team_capacity
        )
        earliest_slot = max(0, earliest_slot)
        window = self._loads[earliest_slot:]
        fits = (self.team_capacity - window) + 1e-6 >= required
        if fits.any():
            slot = earliest_slot + int(np.argmax(fits))
            assignment = SlotAssignment(
                fingerprint=fingerprint,
                slot=slot,
                required_capacity=required,
                is_new=True,
            )
            self._place(assignment)
            return assignment
        raise ScheduleError(
            f"no remaining slot can hold new relay {fingerprint}"
        )

    def remove_relay(self, fingerprint: str) -> SlotAssignment:
        """Unschedule a relay that left the network mid-deployment.

        The assignment's capacity is released back to its slot, so later
        :meth:`add_new_relay` calls can re-slot arriving relays into the
        freed space -- the churn-aware path continuous deployments use
        when the consensus drops a relay between schedule computation
        and measurement. Returns the removed assignment.
        """
        assignment = self.assignments.pop(fingerprint, None)
        if assignment is None:
            raise ScheduleError(f"{fingerprint} is not scheduled this period")
        remaining = (
            self.slot_load.get(assignment.slot, 0.0)
            - assignment.required_capacity
        )
        if remaining > 1e-6:
            self.slot_load[assignment.slot] = remaining
        else:
            # The slot is empty (up to float residue): drop it entirely so
            # slots_in_use/makespan shrink back, mirroring never-assigned.
            self.slot_load.pop(assignment.slot, None)
            remaining = 0.0
        if 0 <= assignment.slot < self._loads.size:
            self._loads[assignment.slot] = remaining
        return assignment

    def reslot_relay(self, fingerprint: str,
                     earliest_slot: int = 0) -> SlotAssignment:
        """Move a scheduled relay to the earliest feasible slot.

        Removal + FCFS re-insertion (the relay keeps its required
        capacity and ``is_new`` flag): used when churn frees earlier
        capacity and a late-slotted relay can be pulled forward. Raises
        :class:`ScheduleError` -- with the original assignment restored
        -- if no slot at/after ``earliest_slot`` fits.
        """
        removed = self.remove_relay(fingerprint)
        earliest_slot = max(0, earliest_slot)
        window = self._loads[earliest_slot:]
        fits = (
            (self.team_capacity - window) + 1e-6
            >= removed.required_capacity
        )
        if not fits.any():
            self._place(removed)
            raise ScheduleError(
                f"no slot at/after {earliest_slot} can re-slot {fingerprint}"
            )
        assignment = SlotAssignment(
            fingerprint=fingerprint,
            slot=earliest_slot + int(np.argmax(fits)),
            required_capacity=removed.required_capacity,
            is_new=removed.is_new,
        )
        self._place(assignment)
        return assignment

    def slots_in_use(self) -> int:
        return len(self.slot_load)

    def makespan_slots(self) -> int:
        """Index (exclusive) of the last used slot."""
        if not self.slot_load:
            return 0
        return max(self.slot_load) + 1

    def by_slot(self) -> dict[int, list[SlotAssignment]]:
        out: dict[int, list[SlotAssignment]] = {}
        for a in self.assignments.values():
            out.setdefault(a.slot, []).append(a)
        return out


def greedy_pack_slots(
    estimates: dict[str, float],
    params: FlashFlowParams,
    team_capacity: float,
) -> list[list[str]]:
    """Pack relays into the fewest consecutive slots (paper §7).

    "We greedily assign relays to each slot in order, with each assignment
    choosing the largest relay for which there is available capacity to
    measure." Returns the list of slots, each a list of fingerprints.

    Implemented with a bisect on the (sorted) requirement list rather
    than a full rescan of the remaining relays per slot: "largest relay
    that still fits" is the rightmost entry at or below the residual.
    This packs the July-2019-scale networks of the §7 efficiency benches
    in milliseconds while producing exactly the slots the linear rescan
    would (same greedy order, same float arithmetic).
    """
    # Ascending by requirement; ties keep the descending-capacity scan
    # order of the original linear pass (stable sort + reversal).
    asc = sorted(estimates, key=lambda fp: estimates[fp], reverse=True)[::-1]
    required = {
        fp: min(params.allocation_factor * max(estimates[fp], 1.0),
                team_capacity)
        for fp in estimates
    }
    keys = [required[fp] for fp in asc]
    slots: list[list[str]] = []
    while asc:
        residual = team_capacity
        slot: list[str] = []
        while True:
            index = bisect.bisect_right(keys, residual + 1e-6) - 1
            if index < 0:
                break
            fp = asc.pop(index)
            keys.pop(index)
            slot.append(fp)
            residual -= required[fp]
        if not slot:
            raise ScheduleError(
                "a relay requires more than the whole team capacity"
            )
        slots.append(slot)
    return slots


def _min_fit(left: float, right: float) -> float:
    """The smaller of two requirements; NaN (never fits) loses to any number."""
    return left if right != right or left <= right else right


def first_fit_slots(
    requirements: Sequence[float], capacity: float
) -> list[list[int]]:
    """Pack a queue into consecutive slots, first fit in queue order.

    Each slot starts with ``capacity`` of residual and takes, walking
    the remaining entries in queue order, every entry whose requirement
    is at most ``residual + 1e-6``, subtracting each requirement in
    take order. Entries that do not fit stay queued, in order, for the
    next slot. A NaN requirement never fits; when nothing fits a fresh
    slot, the first remaining entry gets a slot of its own. Returns
    each slot's queue indices in take order.

    A min segment tree over queue positions finds the leftmost fitting
    entry after the last one taken in O(log n), so a pack costs
    O(n log n) where rescanning the queue per slot costs O(n x slots);
    the slots and their float arithmetic are the same.
    """
    n = len(requirements)
    size = 1
    while size < n:
        size *= 2
    # Leaves hold requirements; taken entries and padding are NaN.
    tree = [float("nan")] * (2 * size)
    tree[size:size + n] = requirements
    for node in range(size - 1, 0, -1):
        tree[node] = _min_fit(tree[2 * node], tree[2 * node + 1])
    taken = [False] * n

    def leftmost_fit(lo: int, limit: float) -> int:
        """Leftmost remaining index >= ``lo`` at most ``limit``, or -1."""
        node = lo + size
        while not tree[node] <= limit:
            # Nothing fits in this subtree: step to the next one right.
            while node & 1:
                node >>= 1
            if not node:
                return -1
            node += 1
        while node < size:
            node *= 2
            if not tree[node] <= limit:
                node += 1
        return node - size

    def take(index: int) -> None:
        taken[index] = True
        node = index + size
        tree[node] = float("nan")
        node >>= 1
        while node:
            value = _min_fit(tree[2 * node], tree[2 * node + 1])
            if value is tree[node]:
                break  # unchanged min: every ancestor is unchanged too
            tree[node] = value
            node >>= 1

    head = 0  # every index below ``head`` is taken
    slots: list[list[int]] = []
    while True:
        while head < n and taken[head]:
            head += 1
        if head == n:
            return slots
        residual = capacity
        index = leftmost_fit(head, residual + 1e-6)
        if index < 0:
            # Nothing fits a fresh slot: the first entry gets one alone.
            take(head)
            slots.append([head])
            continue
        slot = []
        while index >= 0:
            slot.append(index)
            take(index)
            residual -= requirements[index]
            index = (
                leftmost_fit(index + 1, residual + 1e-6)
                if index + 1 < n
                else -1
            )
        slots.append(slot)
