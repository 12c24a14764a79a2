"""Greedy measurer-capacity allocation (paper §4.2).

"The BWAuth can allocate to this measurement any amount a_i of the
capacity of M_i subject to 0 <= a_i <= c_i and sum(a_i) = f * z0. We
greedily allocate capacity by repeatedly assigning the measurer with the
most residual capacity to use all its remaining capacity or as much as is
needed to reach f * z0."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.measurer import Measurer
from repro.errors import AllocationError


@dataclass
class MeasurerAssignment:
    """One measurer's share of a measurement."""

    measurer: Measurer
    allocated: float

    @property
    def participates(self) -> bool:
        """a_i = 0 is allowed and means the measurer sits this one out."""
        return self.allocated > 0


class TeamCapacity:
    """A team's capacities, read once and granted greedily per request.

    Reads each measurer's residual capacity (its full capacity when
    ``use_residual`` is false) and the most-residual-first order once,
    so a campaign round allocating many jobs from an uncommitted team
    reads them once. Each grant drains a measurer to exactly zero or
    covers what remains, so no measurer is granted twice, and visiting
    them in descending capacity, ties in team order, gives the same
    grants and float sums as repeatedly picking the first
    most-residual measurer. Measurer names must be unique, as the
    authority enforces.
    """

    def __init__(self, team: list[Measurer], use_residual: bool = True):
        self.team = list(team)
        self.capacities = [
            m.residual_capacity if use_residual else m.capacity
            for m in self.team
        ]
        self.total = sum(self.capacities)
        # A stable sort keeps equal capacities in team order, even
        # reversed.
        self.order = sorted(
            range(len(self.team)),
            key=self.capacities.__getitem__,
            reverse=True,
        )

    def allocate(self, required: float) -> list[MeasurerAssignment]:
        """Greedily allocate ``required`` bit/s across the team.

        Returns one assignment per measurer (zero-allocated measurers
        included, preserving team order). Raises :class:`AllocationError`
        if the team cannot supply ``required``.
        """
        if required < 0:
            raise AllocationError("cannot allocate negative capacity")
        if self.total + 1e-6 < required:
            raise AllocationError(
                f"team supplies {self.total:.0f} bit/s but "
                f"{required:.0f} needed"
            )
        allocations = [0.0] * len(self.team)
        remaining = required
        # Tolerance scales with the request: at multi-Gbit/s magnitudes
        # the floating-point ulp alone exceeds an absolute epsilon.
        tolerance = max(1e-6, required * 1e-9)
        for i in self.order:
            if remaining <= tolerance or self.capacities[i] <= 0:
                break
            grant = min(self.capacities[i], remaining)
            allocations[i] = grant
            remaining -= grant
        if remaining > tolerance:
            raise AllocationError("ran out of capacity mid-allocation")
        return [
            MeasurerAssignment(measurer=m, allocated=a)
            for m, a in zip(self.team, allocations)
        ]


def allocate_capacity(
    team: list[Measurer], required: float, use_residual: bool = True
) -> list[MeasurerAssignment]:
    """Greedily allocate ``required`` bit/s across the team.

    The one-shot form of :meth:`TeamCapacity.allocate`. Raises
    :class:`AllocationError` if the team cannot supply ``required``.

    ``use_residual`` accounts for capacity committed to concurrent
    measurements; the full-network scheduler relies on this.
    """
    return TeamCapacity(team, use_residual).allocate(required)


def total_allocated(assignments: list[MeasurerAssignment]) -> float:
    return sum(a.allocated for a in assignments)


def allocate_evenly(
    team: list[Measurer], required: float
) -> list[MeasurerAssignment]:
    """Split ``required`` evenly across all measurers (paper Appendix E.2).

    The Fig 6/15 Internet experiments "divide that capacity assignment
    evenly across the measurers in the subset" rather than greedily.
    Raises :class:`AllocationError` if any even share exceeds a
    measurer's capacity.
    """
    if not team:
        raise AllocationError("need at least one measurer")
    if required < 0:
        raise AllocationError("cannot allocate negative capacity")
    share = required / len(team)
    for measurer in team:
        if share > measurer.capacity + 1e-6:
            raise AllocationError(
                f"even share {share:.0f} bit/s exceeds {measurer.name}'s "
                f"capacity {measurer.capacity:.0f}"
            )
    return [MeasurerAssignment(measurer=m, allocated=share) for m in team]
