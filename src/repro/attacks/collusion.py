"""Colluding-relay bandwidth inflation (TorMult-style, arXiv:2307.08550).

A set of colluding relays can do something no single relay can: claim
*each other's* measurement traffic as their own background traffic.
While relay A is being measured, its colluders B and C tell the BWAuth
"we are currently forwarding A's measurement cells as normal client
traffic" -- traffic that demonstrably exists on the wire, so a
consistency check against observed totals cannot refute the claim the
way it refutes a lone liar inventing bytes from nothing.

FlashFlow's defence is the same ``y <= x * r/(1-r)`` clamp that bounds
every traffic lie: a colluder's claimed background is capped relative
to the measurement traffic *it* carried, so pooling claims across the
group still cannot push any member past the ``1/(1-r)`` inflation
bound (paper §5). The ``collusion-attack`` registry scenario asserts
exactly that, and contrasts it with TorFlow's self-report scaling,
where the same collusion yields unbounded inflation.

Each report depends on what the other group members forwarded during
their own measurements, yet it still compiles: no peer is walked during
a colluder's slot, so the pooled claim is the same every second of it.
:meth:`CollusionBehavior.kernel_program` reads the group's ledger when
the slot compiles and hands the kernel a constant
``background_report_offset``. The group is the behaviour's
:attr:`~repro.tornet.relay.RelayBehavior.ledger`, so the kernel runs
clique members of one batch in ordered waves (see :mod:`repro.kernel`),
each slot compiling after its earlier peers settled.
"""

from __future__ import annotations

from repro.tornet.relay import BehaviorProgram, Relay, RelayBehavior


class CollusionGroup:
    """Shared ledger for one colluding clique.

    Each member records the measurement bytes it forwarded in its most
    recent measured second; peers claim those bytes as background.
    """

    def __init__(self) -> None:
        self.members: list["CollusionBehavior"] = []

    def add(self, behavior: "CollusionBehavior") -> None:
        if behavior not in self.members:
            self.members.append(behavior)
        behavior._group = self

    def pooled_bytes(self, excluding: "CollusionBehavior") -> float:
        """Peers' last per-second measurement bytes (never the caller's)."""
        return sum(
            member._last_measurement_bytes
            for member in self.members
            if member is not excluding
        )


class CollusionBehavior(RelayBehavior):
    """Claim colluding peers' measurement traffic as background.

    The relay forwards its real traffic honestly (the capacity split is
    untouched) but its background report is inflated by whatever its
    group peers carried during their own most recent measured seconds.
    The report is always a finite byte count -- collusion games the
    clamp, it does not try to crash it.
    """

    name = "collusion"

    def __init__(self, group: CollusionGroup | None = None):
        self._group: CollusionGroup | None = None
        self._last_measurement_bytes = 0.0
        (group if group is not None else CollusionGroup()).add(self)

    def note_measurement(self, measurement_bytes: float, relay: Relay) -> None:
        self._last_measurement_bytes = measurement_bytes

    @property
    def ledger(self) -> CollusionGroup | None:
        return self._group

    def report_background(self, actual_bytes: float, relay: Relay) -> float:
        assert self._group is not None
        return actual_bytes + self._group.pooled_bytes(excluding=self)

    def kernel_program(self) -> BehaviorProgram:
        # The peers' bytes as they stand when the slot compiles: the
        # offset report_background adds every second of the slot.
        assert self._group is not None
        return BehaviorProgram(
            background_report_offset=self._group.pooled_bytes(excluding=self)
        )


class CollusionFactory:
    """``seed -> CollusionBehavior`` factory that forms cliques.

    Registered in the adversary-mix registry under ``"collusion"`` as
    the class itself; :meth:`repro.api.scenario.AdversarySpec.factory`
    instantiates it afresh per scenario resolution, so resolving a
    scenario twice never shares ledgers between runs. Every
    ``group_size`` behaviours created join one new
    :class:`CollusionGroup`; :meth:`finalize` (called by
    ``AdversaryMix.apply`` after assignment) folds a trailing singleton
    into the previous clique so no colluder is left without peers.
    """

    name = "collusion"

    def __init__(self, group_size: int = 2):
        if group_size < 2:
            raise ValueError("a colluding clique needs at least two members")
        self.group_size = group_size
        self.groups: list[CollusionGroup] = []

    def __call__(self, seed: int) -> CollusionBehavior:
        del seed  # The ledger is deterministic; no randomness needed.
        if not self.groups or len(self.groups[-1].members) >= self.group_size:
            self.groups.append(CollusionGroup())
        return CollusionBehavior(self.groups[-1])

    def finalize(self) -> None:
        if len(self.groups) >= 2 and len(self.groups[-1].members) == 1:
            lone = self.groups.pop().members[0]
            self.groups[-1].add(lone)
