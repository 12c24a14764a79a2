"""The FlashFlow Bandwidth Authority (paper §4.2).

A BWAuth coordinates its measurement team:

- *measuring measurers*: estimate each measurer's forwarding capacity with
  concurrent bidirectional UDP iPerf against the rest of the team (a lower
  bound is fine -- underestimates only slow the campaign);
- *measuring old relays*: allocate ``f * z0`` of team capacity (greedy),
  run a slot, accept ``z`` if ``z < sum(a_i)(1 - eps1)/m``, otherwise set
  ``z0 = max(z, 2 z0)`` (guaranteeing at least a doubling) and retry;
- *measuring new relays*: same, seeded with the 75th-percentile measured
  capacity among relays over the past month.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.allocation import (
    MeasurerAssignment,
    allocate_capacity,
    total_allocated,
)
from repro.core.engine import (
    MeasurementEngine,
    MeasurementNoise,
    MeasurementOutcome,
    MeasurementSpec,
)
from repro.core.measurer import Measurer
from repro.core.params import FlashFlowParams
from repro.errors import AllocationError, MeasurementFailure
from repro.netsim.iperf import iperf_many_to_one
from repro.netsim.latency import NetworkModel
from repro.tornet.relay import Relay


@dataclass
class RelayEstimate:
    """The conclusion of measuring one relay (possibly several slots)."""

    fingerprint: str
    capacity: float
    rounds: int
    conclusive: bool
    outcomes: list[MeasurementOutcome] = field(default_factory=list)
    failed: bool = False
    failure_reason: str | None = None

    @property
    def slots_used(self) -> int:
        return len(self.outcomes)


class FlashFlowAuthority:
    """One BWAuth and its measurement team."""

    def __init__(
        self,
        name: str,
        team: list[Measurer],
        params: FlashFlowParams | None = None,
        network: NetworkModel | None = None,
        seed: int = 0,
    ):
        if not team:
            raise AllocationError("a BWAuth needs at least one measurer")
        # Allocation keys capacities and grants by measurer name, so two
        # measurers sharing one would silently pool into a single entry.
        names = [m.name for m in team]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise AllocationError(
                f"measurer names must be unique; repeated: {duplicates}"
            )
        self.name = name
        self.team = list(team)
        self.params = params or FlashFlowParams()
        self.network = network
        self.seed = seed
        #: fingerprint -> last accepted capacity estimate (bit/s).
        self.estimates: dict[str, float] = {}
        #: The execution engine all of this authority's measurements --
        #: single-relay and campaign -- run through.
        self.engine = MeasurementEngine(
            params=self.params, network=self.network
        )

    # ------------------------------------------------------------------
    # Measuring measurers (paper §4.2)
    # ------------------------------------------------------------------

    def measure_measurers(self, duration: int = 60) -> dict[str, float]:
        """Estimate each measurer's capacity with team-wide UDP iPerf.

        Requires a network model containing the team hosts. Each measurer
        is saturated by all others simultaneously for ``duration`` seconds;
        the estimate is the median per-second sum. With fewer than two
        measurers (nothing to exchange traffic with), the link rate is the
        only available bound and is used directly.
        """
        results = {}
        for i, measurer in enumerate(self.team):
            others = [m.host.name for m in self.team if m.name != measurer.name]
            if self.network is None or not others:
                estimate = measurer.host.link_capacity
            else:
                estimate = iperf_many_to_one(
                    self.network,
                    target=measurer.host.name,
                    sources=others,
                    duration=duration,
                    seed=self.seed + i,
                ).median_bits_per_sec
            measurer.measured_capacity = min(
                estimate, measurer.host.link_capacity
            )
            results[measurer.name] = measurer.measured_capacity
        return results

    def team_capacity(self) -> float:
        return sum(m.capacity for m in self.team)

    # ------------------------------------------------------------------
    # Measuring a relay (paper §4.2)
    # ------------------------------------------------------------------

    def measure_relay(
        self,
        target: Relay,
        initial_estimate: float | None = None,
        target_location: str | None = None,
        background_demand: float | Callable[[int], float] = 0.0,
        period_index: int = 0,
        max_rounds: int = 10,
        noise: MeasurementNoise | None = None,
        enforce_admission: bool = False,
        seed_offset: int = 0,
    ) -> RelayEstimate:
        """Measure ``target`` to a conclusive capacity estimate.

        ``initial_estimate`` is the existing estimate ``z0`` for an old
        relay; ``None`` marks a new relay, seeded from
        ``params.new_relay_seed`` (the 75th-percentile capacity, §4.2).

        ``enforce_admission`` applies the one-measurement-per-period rule;
        the retry loop itself is considered a single logical measurement,
        so admission is checked once up front when enabled.
        """
        params = self.params
        z0 = initial_estimate if initial_estimate is not None else params.new_relay_seed
        if z0 <= 0:
            raise MeasurementFailure(
                "capacity guess must be positive", target.fingerprint
            )

        if enforce_admission and not target.accept_measurement(
            self.name, period_index
        ):
            return RelayEstimate(
                fingerprint=target.fingerprint,
                capacity=0.0,
                rounds=0,
                conclusive=False,
                failed=True,
                failure_reason="relay refused: already measured this period",
            )

        outcomes: list[MeasurementOutcome] = []
        for round_index in range(max_rounds):
            required = min(params.allocation_factor * z0, self.team_capacity())
            capped = required < params.allocation_factor * z0
            assignments = allocate_capacity(self.team, required)
            outcome = self.engine.run(
                MeasurementSpec(
                    target=target,
                    assignments=assignments,
                    params=params,
                    network=self.network,
                    target_location=target_location,
                    background_demand=background_demand,
                    seed=self.seed + seed_offset + round_index,
                    bwauth_id=self.name,
                    period_index=period_index,
                    enforce_admission=False,
                    noise=noise,
                )
            )
            outcomes.append(outcome)

            if outcome.failed:
                return RelayEstimate(
                    fingerprint=target.fingerprint,
                    capacity=0.0,
                    rounds=round_index + 1,
                    conclusive=False,
                    outcomes=outcomes,
                    failed=True,
                    failure_reason=outcome.failure_reason,
                )

            z = outcome.estimate
            threshold = params.acceptance_threshold(total_allocated(assignments))
            if z < threshold or capped:
                # Accept: z is small enough relative to the allocated
                # capacity that it must be close to the true capacity --
                # or the team is already fully committed (nothing more to
                # allocate, take the best available answer).
                self.estimates[target.fingerprint] = z
                return RelayEstimate(
                    fingerprint=target.fingerprint,
                    capacity=z,
                    rounds=round_index + 1,
                    conclusive=not capped,
                    outcomes=outcomes,
                )
            z0 = max(z, 2.0 * z0)

        return RelayEstimate(
            fingerprint=target.fingerprint,
            capacity=outcomes[-1].estimate,
            rounds=max_rounds,
            conclusive=False,
            outcomes=outcomes,
            failed=True,
            failure_reason="estimate did not converge within max_rounds",
        )
