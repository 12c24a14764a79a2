"""The historical greedy allocation loop, kept as an oracle.

Before :class:`repro.core.allocation.TeamCapacity`, every call to
``allocate_capacity`` rebuilt name-keyed dicts of the team's
capacities and repeatedly granted to the first measurer with the most
residual capacity. ``reference_allocate`` is that body; the allocation
property tests compare the one-read greedy against it.
"""

from repro.core.allocation import MeasurerAssignment
from repro.core.measurer import Measurer
from repro.errors import AllocationError


def reference_allocate(
    team: list[Measurer], required: float, use_residual: bool = True
) -> list[MeasurerAssignment]:
    """Pick ``max`` by residual per grant; one assignment per measurer."""
    if required < 0:
        raise AllocationError("cannot allocate negative capacity")
    capacities = {
        m.name: (m.residual_capacity if use_residual else m.capacity)
        for m in team
    }
    total = sum(capacities.values())
    if total + 1e-6 < required:
        raise AllocationError(
            f"team supplies {total:.0f} bit/s but {required:.0f} needed"
        )

    allocations = {m.name: 0.0 for m in team}
    remaining = required
    tolerance = max(1e-6, required * 1e-9)
    while remaining > tolerance:
        name = max(capacities, key=lambda n: capacities[n])
        if capacities[name] <= 0:
            raise AllocationError("ran out of capacity mid-allocation")
        grant = min(capacities[name], remaining)
        allocations[name] += grant
        capacities[name] -= grant
        remaining -= grant

    return [
        MeasurerAssignment(measurer=m, allocated=allocations[m.name])
        for m in team
    ]
