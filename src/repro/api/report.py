"""Rich campaign results: per-round timelines, truth error, verification.

:class:`CampaignReport` is the return value of
:meth:`repro.api.campaign.Campaign.run` -- a strict superset of the
legacy :class:`repro.core.netmeasure.CampaignResult` (which it embeds
as ``result``, so every old consumer keeps working through the
compatibility shims). On top it records the per-round measurement
timeline, error-versus-truth when the scenario knows ground truth
(generated networks always do), echo-cell verification statistics, and
the per-period deployment records of multi-period scenarios.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.core.netmeasure import CampaignResult


@dataclass
class MeasurementRecord:
    """One executed measurement (a relay in one slot of one round)."""

    period_index: int
    round_index: int
    slot_index: int
    fingerprint: str
    #: Retry ordinal: 0 for the relay's first measurement this period.
    attempt: int
    #: z0 the slot was planned around (bit/s).
    planned_estimate: float
    #: Measured z (bit/s); 0.0 for failed slots.
    estimate: float
    accepted: bool = False
    retried: bool = False
    failed: bool = False
    failure_reason: str | None = None
    #: Echo cells the BWAuth verified during this slot.
    cells_checked: int = 0
    #: Whether per-second walk state was settled back onto the relay
    #: (full-simulation measurements that produced a walk).
    settled: bool = False


@dataclass
class RoundRecord:
    """One campaign round: its packed slots and every measurement."""

    period_index: int
    round_index: int
    first_slot: int
    slots_packed: int
    measurements: list[MeasurementRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def n_accepted(self) -> int:
        return sum(1 for m in self.measurements if m.accepted)

    @property
    def n_retried(self) -> int:
        return sum(1 for m in self.measurements if m.retried)

    @property
    def n_failed(self) -> int:
        return sum(1 for m in self.measurements if m.failed)

    @property
    def n_settled(self) -> int:
        return sum(1 for m in self.measurements if m.settled)

    @property
    def cells_checked(self) -> int:
        return sum(m.cells_checked for m in self.measurements)


@dataclass
class CampaignReport:
    """Everything a campaign produced.

    ``result`` is the final period's legacy
    :class:`~repro.core.netmeasure.CampaignResult` -- bit-identical to
    what the pre-API entry points returned for the same workload.
    """

    scenario_name: str
    #: The final (for multi-period: last) period's legacy result.
    result: CampaignResult
    #: Per-round timeline across all periods, in execution order.
    rounds: list[RoundRecord] = field(default_factory=list)
    #: Multi-period deployments: one CampaignResult per period.
    period_results: list[CampaignResult] = field(default_factory=list)
    #: Multi-period deployments: the deployment's PeriodRecords
    #: (bandwidth file per period); empty for single-period campaigns.
    deployment_records: list = field(default_factory=list)
    #: Ground-truth capacities (bit/s) when the scenario knows them.
    ground_truth: dict[str, float] = field(default_factory=dict)
    #: fingerprint -> adversary behaviour name for adversarial relays.
    adversaries: dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0

    # -- CampaignResult-compatible surface ----------------------------

    @property
    def estimates(self) -> dict[str, float]:
        return self.result.estimates

    @property
    def failures(self) -> dict[str, str]:
        return self.result.failures

    @property
    def slots_elapsed(self) -> int:
        return self.result.slots_elapsed

    @property
    def seconds_elapsed(self) -> int:
        return self.result.seconds_elapsed

    @property
    def hours_elapsed(self) -> float:
        return self.result.hours_elapsed

    @property
    def measurements_run(self) -> int:
        """Measurements across *all* periods (retries included)."""
        return sum(len(r.measurements) for r in self.rounds)

    # -- Supersets ----------------------------------------------------

    @property
    def n_periods(self) -> int:
        return max(1, len(self.period_results))

    @property
    def cells_checked(self) -> int:
        """Echo cells verified across the whole campaign."""
        return sum(r.cells_checked for r in self.rounds)

    def verification_stats(self) -> dict[str, int]:
        return {
            "cells_checked": self.cells_checked,
            "verification_failures": sum(
                1
                for r in self.rounds
                for m in r.measurements
                if m.failed and m.failure_reason
                and "verif" in m.failure_reason.lower()
            ),
        }

    def timeline(self) -> list[MeasurementRecord]:
        """Every measurement in execution order."""
        return [m for r in self.rounds for m in r.measurements]

    def error_vs_truth(self) -> dict[str, float]:
        """Eq 2 per relay: 1 - estimate/capacity (needs ground truth).

        Relays without an accepted estimate count as fully
        under-estimated (error 1.0), matching the §7 error metrics.
        """
        return {
            fp: 1.0 - self.estimates.get(fp, 0.0) / truth
            for fp, truth in self.ground_truth.items()
            if truth > 0
        }

    def median_error_vs_truth(self) -> float:
        errors = [abs(e) for e in self.error_vs_truth().values()]
        if not errors:
            raise ValueError("scenario has no ground truth")
        return float(statistics.median(errors))

    def adversary_inflation(self) -> dict[str, float]:
        """estimate/truth per adversarial relay (the §5 bound check)."""
        return {
            fp: self.estimates.get(fp, 0.0) / self.ground_truth[fp]
            for fp in self.adversaries
            if self.ground_truth.get(fp, 0.0) > 0
        }

    def to_dict(self) -> dict:
        """A JSON-friendly summary (used by benches and CI smoke)."""
        summary = {
            "scenario": self.scenario_name,
            "periods": self.n_periods,
            "relays_estimated": len(self.estimates),
            "failures": len(self.failures),
            "rounds": len(self.rounds),
            "measurements_run": self.measurements_run,
            "slots_elapsed": self.slots_elapsed,
            "hours_elapsed": round(self.hours_elapsed, 4),
            "cells_checked": self.cells_checked,
            "wall_seconds": round(self.wall_seconds, 4),
            "estimate_total_bits": sum(self.estimates.values()),
        }
        if self.ground_truth:
            summary["median_abs_error_vs_truth"] = round(
                self.median_error_vs_truth(), 6
            )
            summary["network_error_vs_truth"] = round(
                1.0
                - sum(self.estimates.get(fp, 0.0) for fp in self.ground_truth)
                / max(1e-12, sum(self.ground_truth.values())),
                6,
            )
        if self.adversaries:
            inflation = self.adversary_inflation()
            summary["adversaries"] = len(self.adversaries)
            summary["max_adversary_inflation"] = round(
                max(inflation.values(), default=0.0), 4
            )
        return summary
