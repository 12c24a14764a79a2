"""The campaign's historical slot-packing loop, kept as an oracle.

Before :func:`repro.core.schedule.first_fit_slots`, every campaign
round packed its waiting queue by popping and re-appending the whole
deque once per slot. ``reference_first_fit`` is that loop over queue
indices; the first-fit index and the campaign oracle both compare
against it.
"""

from collections import deque
from typing import Sequence


def reference_first_fit(
    requirements: Sequence[float], capacity: float
) -> list[list[int]]:
    """Rescan the waiting queue per slot; each slot's indices in take order."""
    waiting = deque(range(len(requirements)))
    slots = []
    while waiting:
        residual = capacity
        this_slot = []
        deferred = deque()
        while waiting:
            index = waiting.popleft()
            if requirements[index] <= residual + 1e-6:
                this_slot.append(index)
                residual -= requirements[index]
            else:
                deferred.append(index)
        if not this_slot:
            this_slot.append(deferred.popleft())
        slots.append(this_slot)
        waiting = deferred
    return slots
