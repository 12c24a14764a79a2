"""Full-network measurement campaigns (paper §4.3, §7).

The campaign loop itself lives in :mod:`repro.api.campaign` (the
scenario-driven front door): each campaign *round* packs every waiting
relay into consecutive t-second slots, first fit in queue order
(:func:`repro.core.schedule.first_fit_slots`); all measurements of the
round are executed as one batch by the :class:`repro.core.engine.\
MeasurementEngine` (``run_many``), which lowers the round onto the
vectorized measurement kernel (:mod:`repro.kernel`). Outcomes fold
back in deterministic slot order; inconclusive relays re-enter the
next round with a doubled estimate.

Retries are *round-granular*: an inconclusive relay is re-measured
after the current round's remaining slots rather than squeezed into the
next slot's residual capacity (the pre-engine serial loop's behaviour).
This is what makes a round's slots mutually independent and
executable as one batch; the cost is that a campaign with retries may
occupy a few more slots, and per-measurement seeds (slot-index derived)
shift for retried relays. Estimates remain draws from the same
distribution, and the whole campaign is deterministic.

:func:`measure_network` remains as a thin shim over
:class:`repro.api.Campaign` with the historical signature and
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.bwauth import FlashFlowAuthority
from repro.core.engine import MeasurementNoise
from repro.errors import ConfigurationError
from repro.tornet.network import TorNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> core)
    from repro.api.report import CampaignReport


@dataclass
class CampaignResult:
    """Outcome of measuring a whole network once."""

    #: Slot duration of the schedule that produced this campaign; always
    #: populated from the authority's ``FlashFlowParams`` so
    #: ``seconds_elapsed``/``hours_elapsed`` cannot silently disagree
    #: with the schedule actually used.
    slot_seconds: int
    #: Accepted capacity estimates, bit/s.
    estimates: dict[str, float] = field(default_factory=dict)
    #: Relays that never produced an accepted estimate.
    failures: dict[str, str] = field(default_factory=dict)
    #: Number of t-second slots the campaign occupied.
    slots_elapsed: int = 0
    #: Individual measurements run (retries included).
    measurements_run: int = 0

    @property
    def seconds_elapsed(self) -> int:
        return self.slots_elapsed * self.slot_seconds

    @property
    def hours_elapsed(self) -> float:
        return self.seconds_elapsed / 3600.0


def normalize_background_demand(
    background_demand: float | dict[str, float] | Callable[[int], float],
) -> Callable[[str], float | Callable[[int], float]]:
    """Collapse the three background-traffic forms into one resolver.

    ``background_demand`` may be a constant (bit/s at every relay), a
    per-fingerprint dict (relays absent from it see zero), or a
    callable of the measurement second (applied identically at every
    relay). Returns ``fingerprint -> per-relay demand`` where the
    per-relay demand is itself a constant or a callable of time --
    exactly what :class:`repro.core.engine.MeasurementSpec.\
background_demand` accepts. Every campaign path resolves backgrounds
    through this one helper, so the three forms are interchangeable:
    equivalent inputs produce bit-identical estimates.
    """
    if isinstance(background_demand, dict):
        table = background_demand
        return lambda fp: table.get(fp, 0.0)
    if callable(background_demand):
        return lambda fp: background_demand
    if isinstance(background_demand, (int, float)) and not isinstance(
        background_demand, bool
    ):
        # Values are passed through unvalidated for all three forms
        # alike (the engine clamps per second); only the *shape* is
        # checked here.
        value = float(background_demand)
        return lambda fp: value
    raise ConfigurationError(
        "background_demand must be a constant (bit/s), a per-fingerprint "
        f"dict, or a callable of the second; got {type(background_demand)!r}"
    )


def measure_network(
    network: TorNetwork,
    authority: FlashFlowAuthority,
    prior_estimates: dict[str, float] | None = None,
    background_demand: float | dict[str, float] | Callable[[int], float] = 0.0,
    max_rounds: int = 8,
    full_simulation: bool = True,
    noise: MeasurementNoise | None = None,
    analytic_error_std: float = 0.02,
) -> CampaignResult:
    """Measure every relay in ``network`` once (one measurement period).

    A compatibility shim over :class:`repro.api.Campaign` (results are
    bit-identical); new code describes the workload with
    ``Campaign(Scenario(...), ExecutionConfig(...))``.

    ``prior_estimates`` supplies z0 for old relays (fingerprint ->
    bit/s); relays absent from it are treated as new and seeded from
    ``params.new_relay_seed``. Old relays are scheduled before new ones
    (paper §4.3 priority). ``background_demand`` may be a constant, a
    callable of time, or a per-fingerprint dict (see
    :func:`normalize_background_demand`).
    """
    report = run_campaign(
        network,
        authority,
        prior_estimates=prior_estimates,
        background_demand=background_demand,
        max_rounds=max_rounds,
        full_simulation=full_simulation,
        noise=noise,
        analytic_error_std=analytic_error_std,
    )
    return report.result


def run_campaign(
    network: TorNetwork,
    authority: FlashFlowAuthority,
    prior_estimates: dict[str, float] | None = None,
    background_demand: float | dict[str, float] | Callable[[int], float] = 0.0,
    max_rounds: int = 8,
    full_simulation: bool = True,
    noise: MeasurementNoise | None = None,
    analytic_error_std: float = 0.02,
) -> "CampaignReport":
    """One-period campaign over existing objects, through the API.

    Internal rewiring helper shared by the :func:`measure_network` shim
    and :meth:`repro.core.deployment.Deployment.run_period`: wraps the
    live ``network``/``authority`` in a :class:`repro.api.Scenario`,
    maps the execution knobs onto :class:`repro.api.ExecutionConfig`,
    and runs a :class:`repro.api.Campaign` (no observers). Returns the
    full :class:`repro.api.report.CampaignReport`.
    """
    from repro.api import Campaign, ExecutionConfig, Scenario

    scenario = Scenario(
        name="measure-network",
        network=network,
        team=authority,
        priors=dict(prior_estimates) if prior_estimates else None,
        background=background_demand,
        noise=noise,
    )
    execution = ExecutionConfig(
        full_simulation=full_simulation,
        max_rounds=max_rounds,
        analytic_error_std=analytic_error_std,
    )
    return Campaign(scenario, execution).run()
