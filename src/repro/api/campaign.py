"""The campaign runner: Scenario + ExecutionConfig -> streamed rounds.

This module owns the canonical FlashFlow campaign loop (formerly the
body of :func:`repro.core.netmeasure.measure_network`, which is now a
thin shim over it). Each campaign *round* packs every waiting relay
into consecutive t-second slots, first fit in queue order
(:func:`repro.core.schedule.first_fit_slots`); the round's measurements
execute as one batch through :class:`repro.core.engine.\
MeasurementEngine.run_many`, which lowers them onto the vectorized kernel
(:mod:`repro.kernel`), while ``full_simulation=False`` rounds run
whole-round analytic estimates through :mod:`repro.kernel.analytic`;
outcomes fold back in deterministic slot order and inconclusive relays
re-enter the next round with a doubled estimate. Retries are
round-granular (see the shim's docstring for the history): round N+1's
jobs are exactly round N's retries, and compiling a retry reads the
relay's jitter stream and token-bucket snapshot *after* round N's walk
settles back onto it. The whole campaign is deterministic.

:class:`Campaign` adds streaming on top: :meth:`Campaign.iter_rounds`
yields :mod:`repro.api.events` as rounds plan and complete, and
:meth:`Campaign.run` dispatches them to observers while assembling a
:class:`repro.api.report.CampaignReport`. Multi-period scenarios run
the :class:`repro.core.deployment.Deployment` loop -- prior carryover,
estimate aging, a bandwidth file per period -- with every period's
rounds streamed through the same event surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.api.events import (
    CampaignCompleted,
    CampaignEvent,
    CampaignObserver,
    CampaignStarted,
    PeriodCompleted,
    PeriodStarted,
    RoundCompleted,
    RoundPlanned,
)
from repro.api.execution import ExecutionConfig
from repro.api.report import CampaignReport, MeasurementRecord, RoundRecord
from repro.api.scenario import ResolvedScenario, Scenario
from repro.core.allocation import MeasurerAssignment, allocate_capacity, total_allocated
from repro.core.bwauth import FlashFlowAuthority
from repro.core.deployment import Deployment
from repro.core.engine import (
    MeasurementEngine,
    MeasurementNoise,
    MeasurementSpec,
)
from repro.core.netmeasure import (
    CampaignResult,
    normalize_background_demand,
)
from repro.core.schedule import first_fit_slots
from repro.kernel.analytic import run_analytic_round
from repro.obs import (
    JsonlTraceWriter,
    Tracer,
    get_registry,
    get_tracer,
    run_manifest,
    use_tracer,
)
from repro.rng import fork
from repro.tornet.network import TorNetwork
from repro.tornet.relay import Relay


@dataclass
class _Job:
    """One scheduled measurement of a campaign round."""

    fingerprint: str
    z0: float
    rounds: int
    slot_index: int
    relay: Relay
    capped: bool
    assignments: list[MeasurerAssignment]
    background: float | Callable[[int], float]
    #: Pre-drawn analytic measurement-error factor (analytic mode only).
    wobble: float | None = None


def run_period_rounds(
    network: TorNetwork,
    authority: FlashFlowAuthority,
    priors: dict[str, float],
    background: float | dict[str, float] | Callable[[int], float],
    execution: ExecutionConfig,
    noise: MeasurementNoise | None = None,
    engine: MeasurementEngine | None = None,
    period_index: int = 0,
    rounds_out: list[RoundRecord] | None = None,
) -> Iterator[CampaignEvent]:
    """Run one measurement period as a round-event generator.

    Yields :class:`RoundPlanned` / :class:`RoundCompleted` events and
    *returns* (via ``StopIteration.value`` / ``yield from``) the
    period's :class:`CampaignResult`. This generator is the single
    implementation of the campaign loop; the ``measure_network`` shim
    drains it without observers and every ``Campaign`` streams it.

    Semantics are op-for-op those of the historical ``measure_network``
    body: the analytic-wobble RNG forks from ``(authority.seed,
    "campaign-analytic")`` and draws in job-packing order, measurement
    seeds derive from slot index and attempt, accepted estimates are
    folded into ``authority.estimates``, and retries are
    round-granular. ``period_index`` labels events only -- it does not
    enter seeds or specs, so re-running a period reproduces the exact
    historical deployment behaviour (stateful relays still evolve
    between periods).

    Each round packs its waiting queue first fit in queue order
    (:func:`repro.core.schedule.first_fit_slots`): a slot takes every
    queued relay whose requirement ``min(f * max(z0, 1), team
    capacity)`` still fits its residual. The first round's queue is
    the old relays by prior descending, then the new relays
    first-come-first-served (network order); each later round's queue
    is the previous round's retries in slot order. Requirements are
    computed once per queued relay and a min segment tree finds each
    next fit, so packing a round of n relays costs O(n log n) rather
    than a rescan of the queue per slot.
    """
    params = authority.params
    team = authority.team
    team_capacity = authority.team_capacity()
    result = CampaignResult(slot_seconds=params.slot_seconds)
    rng = fork(authority.seed, "campaign-analytic")
    if engine is None:
        engine = getattr(authority, "engine", None) or MeasurementEngine()
    background_for = normalize_background_demand(background)

    old = [fp for fp in network.relays if fp in priors]
    new = [fp for fp in network.relays if fp not in priors]
    # Old relays first (guaranteed measurement), largest prior first to
    # pack slots tightly; then new relays FCFS.
    old.sort(key=lambda fp: priors[fp], reverse=True)
    queue: list[tuple[str, float, int]] = (
        [(fp, priors[fp], 0) for fp in old]
        + [(fp, params.new_relay_seed, 0) for fp in new]
    )

    def required_for(z0: float) -> float:
        return min(params.allocation_factor * max(z0, 1.0), team_capacity)

    slot_index = 0
    round_index = 0
    while queue:
        tracer = get_tracer()
        with tracer.span(
            "round", period_index=period_index, round_index=round_index
        ) as round_span:
            # --- Pack the whole waiting queue into consecutive slots --
            # Every queued relay is independent of the others' outcomes,
            # so a round's slots can all be planned up front and run as
            # one batch.
            with tracer.span("round.pack"):
                first_slot = slot_index
                required = [required_for(z0) for _, z0, _ in queue]
                jobs: list[_Job] = []
                for slot in first_fit_slots(required, team_capacity):
                    for i in slot:
                        fp, z0, rounds = queue[i]
                        jobs.append(
                            _Job(
                                fingerprint=fp,
                                z0=z0,
                                rounds=rounds,
                                slot_index=slot_index,
                                relay=network[fp],
                                capped=(
                                    required[i]
                                    < params.allocation_factor * z0
                                ),
                                assignments=allocate_capacity(
                                    team, required[i]
                                ),
                                background=background_for(fp),
                                wobble=(
                                    None
                                    if execution.full_simulation
                                    else max(
                                        0.8,
                                        rng.gauss(
                                            1.0,
                                            execution.analytic_error_std,
                                        ),
                                    )
                                ),
                            )
                        )
                    slot_index += 1

            round_span.set(
                n_jobs=len(jobs), slots_packed=slot_index - first_slot
            )
            yield RoundPlanned(
                period_index=period_index,
                round_index=round_index,
                n_jobs=len(jobs),
                first_slot=first_slot,
                slots_packed=slot_index - first_slot,
            )

            # --- Execute the round ------------------------------------
            started = time.perf_counter()
            accepted: list[bool] | None = None
            if execution.full_simulation:
                specs = [
                    MeasurementSpec(
                        target=job.relay,
                        assignments=job.assignments,
                        params=params,
                        network=authority.network,
                        background_demand=job.background,
                        seed=authority.seed
                        + job.slot_index * 7919
                        + job.rounds,
                        bwauth_id=authority.name,
                        period_index=0,
                        enforce_admission=False,
                        noise=noise,
                    )
                    for job in jobs
                ]
                outcomes = engine.run_many(specs)
                results = [
                    (o.estimate, o.failed, o.failure_reason, o.cells_checked)
                    for o in outcomes
                ]
            else:
                # The analytic kernel walks the whole round as one array
                # op (estimates + accept decisions), bit-identical to the
                # scalar analytic_estimate loop and the fold below.
                analytic = run_analytic_round(engine, jobs, params)
                results = [(z, False, None, 0) for z in analytic.estimates]
                accepted = analytic.accepted

            # --- Fold outcomes back in deterministic slot order -------
            with tracer.span("round.fold"):
                record = RoundRecord(
                    period_index=period_index,
                    round_index=round_index,
                    first_slot=first_slot,
                    slots_packed=slot_index - first_slot,
                )
                retries: list[tuple[str, float, int]] = []
                for i, (job, (z, failed, reason, cells_checked)) in enumerate(
                    zip(jobs, results)
                ):
                    result.measurements_run += 1
                    measurement = MeasurementRecord(
                        period_index=period_index,
                        round_index=round_index,
                        slot_index=job.slot_index,
                        fingerprint=job.fingerprint,
                        attempt=job.rounds,
                        planned_estimate=job.z0,
                        estimate=z,
                        failed=failed,
                        failure_reason=reason,
                        cells_checked=cells_checked,
                        settled=execution.full_simulation and not failed,
                    )
                    record.measurements.append(measurement)
                    if failed:
                        result.failures[job.fingerprint] = (
                            reason or "measurement failed"
                        )
                        continue
                    if accepted is not None:
                        # Pre-computed by the analytic kernel's array
                        # walk -- bit-identical to the scalar
                        # recomputation below.
                        accept = accepted[i]
                    else:
                        threshold = params.acceptance_threshold(
                            total_allocated(job.assignments)
                        )
                        accept = z < threshold or job.capped
                    if accept:
                        result.estimates[job.fingerprint] = z
                        authority.estimates[job.fingerprint] = z
                        measurement.accepted = True
                    elif job.rounds + 1 >= execution.max_rounds:
                        # ``job.rounds`` counts *prior* attempts, so this
                        # measurement was attempt ``job.rounds + 1``: a
                        # relay that never converges is attempted exactly
                        # ``execution.max_rounds`` times before giving up
                        # (pinned by tests/api/test_max_rounds.py).
                        result.failures[job.fingerprint] = "did not converge"
                        measurement.failed = True
                        measurement.failure_reason = "did not converge"
                    else:
                        retries.append(
                            (
                                job.fingerprint,
                                max(z, 2.0 * job.z0),
                                job.rounds + 1,
                            )
                        )
                        measurement.retried = True
            record.wall_seconds = time.perf_counter() - started

            registry = get_registry()
            registry.counter("campaign.rounds").inc()
            registry.counter("campaign.measurements").inc(
                len(record.measurements)
            )
            registry.counter("campaign.accepted").inc(record.n_accepted)
            registry.counter("campaign.retried").inc(record.n_retried)
            registry.counter("campaign.failed").inc(record.n_failed)

            if rounds_out is not None:
                rounds_out.append(record)
            yield RoundCompleted(
                period_index=period_index,
                round_index=round_index,
                record=record,
            )
        queue = retries
        round_index += 1

    result.slots_elapsed = slot_index
    return result


class Campaign:
    """A runnable (scenario, execution) pair.

    >>> from repro.api import Campaign, ExecutionConfig, Scenario
    >>> report = Campaign(Scenario(), ExecutionConfig()).run()

    ``engine`` overrides the authority's shared
    :class:`MeasurementEngine` (the legacy ``measure_network`` shim
    passes its caller's); almost all callers leave it None.
    """

    def __init__(
        self,
        scenario: Scenario,
        execution: ExecutionConfig | None = None,
        engine: MeasurementEngine | None = None,
    ):
        self.scenario = scenario
        self.execution = execution or ExecutionConfig()
        self.engine = engine
        #: Set when a run completes (also delivered via
        #: :class:`CampaignCompleted` and returned from :meth:`run`).
        self.report: CampaignReport | None = None
        #: The most recent run's resolved scenario (live objects).
        self.resolved: ResolvedScenario | None = None
        #: The tracer the most recent run recorded into: the JSONL
        #: tracer when ``execution.trace`` is set, else whatever was
        #: ambient (normally the null tracer). CLIs use this to render
        #: the post-run summary table.
        self.tracer = None

    def iter_rounds(self) -> Iterator[CampaignEvent]:
        """Stream the campaign: resolve, run every period, yield events.

        The final event is :class:`CampaignCompleted` carrying the
        report; afterwards ``self.report`` is set.

        When ``execution.trace`` is set, a recording tracer streams
        ``campaign > period > round`` spans to that JSONL file and is
        finalized (metrics snapshot + end record) when the generator
        finishes or is closed. Otherwise the ambient tracer -- normally
        the no-op null tracer -- is used as-is, so untraced runs pay
        nothing and benches can install their own recording tracer.
        """
        execution = self.execution
        if execution.trace is None:
            self.tracer = get_tracer()
            yield from self._iter_rounds(self.tracer)
            return
        scenario = self.scenario
        manifest = run_manifest(
            scenario_name=scenario.name,
            seed=scenario.seed,
            full_simulation=execution.full_simulation,
            periods=scenario.periods,
            max_rounds=execution.max_rounds,
        )
        tracer = Tracer(sink=JsonlTraceWriter(execution.trace, manifest))
        self.tracer = tracer
        try:
            with use_tracer(tracer):
                yield from self._iter_rounds(tracer)
        finally:
            # Runs on normal completion AND on generator close/abandon,
            # so a killed run still gets its metrics + end records.
            tracer.finish(registry=get_registry())

    def _iter_rounds(self, tracer: Tracer) -> Iterator[CampaignEvent]:
        scenario, execution = self.scenario, self.execution
        campaign_span = tracer.span(
            "campaign",
            scenario=scenario.name,
            periods=scenario.periods,
            full_simulation=execution.full_simulation,
        )
        with campaign_span:
            with tracer.span("campaign.resolve"):
                resolved = scenario.resolve()
            yield from self._run_resolved(resolved, campaign_span, tracer)

    def _run_resolved(
        self,
        resolved: ResolvedScenario,
        campaign_span,
        tracer: Tracer,
    ) -> Iterator[CampaignEvent]:
        scenario, execution = self.scenario, self.execution
        self.resolved = resolved
        self.report = None
        network, authority = resolved.network, resolved.authority
        campaign_span.set(
            n_relays=len(network), n_measurers=len(authority.team)
        )
        started = time.perf_counter()

        yield CampaignStarted(
            scenario_name=scenario.name,
            n_relays=len(network),
            n_measurers=len(authority.team),
            team_capacity=authority.team_capacity(),
            periods=scenario.periods,
        )

        rounds: list[RoundRecord] = []
        period_results: list[CampaignResult] = []
        deployment_records: list = []
        result: CampaignResult | None = None

        if scenario.periods == 1:
            yield PeriodStarted(
                period_index=0,
                n_relays=len(network),
                n_priors=len(resolved.priors),
            )
            with tracer.span("period", period_index=0):
                result = yield from run_period_rounds(
                    network,
                    authority,
                    resolved.priors,
                    resolved.background,
                    execution,
                    noise=resolved.noise,
                    engine=self.engine,
                    period_index=0,
                    rounds_out=rounds,
                )
            yield PeriodCompleted(period_index=0, result=result)
        else:
            # The deployment owns prior carryover and estimate aging;
            # the campaign streams each period's rounds through it.
            deployment = Deployment(
                authority=authority,
                full_simulation=execution.full_simulation,
            )
            for period_index in range(scenario.periods):
                priors = deployment.priors_for(network)
                if period_index == 0:
                    priors = {**resolved.priors, **priors}
                yield PeriodStarted(
                    period_index=period_index,
                    n_relays=len(network),
                    n_priors=len(priors),
                )
                with tracer.span("period", period_index=period_index):
                    result = yield from run_period_rounds(
                        network,
                        authority,
                        priors,
                        resolved.background,
                        execution,
                        noise=resolved.noise,
                        engine=self.engine,
                        period_index=period_index,
                        rounds_out=rounds,
                    )
                period_results.append(result)
                deployment_record = deployment.record_period(result)
                deployment_records.append(deployment_record)
                yield PeriodCompleted(
                    period_index=period_index,
                    result=result,
                    deployment_record=deployment_record,
                )

        report = CampaignReport(
            scenario_name=scenario.name,
            result=result,
            rounds=rounds,
            period_results=period_results,
            deployment_records=deployment_records,
            ground_truth=resolved.ground_truth,
            adversaries=resolved.adversaries,
            wall_seconds=time.perf_counter() - started,
        )
        self.report = report
        yield CampaignCompleted(report=report)

    def run(
        self, observers: Sequence[CampaignObserver] = ()
    ) -> CampaignReport:
        """Run to completion, dispatching every event to ``observers``."""
        observers = list(observers)
        for event in self.iter_rounds():
            for observer in observers:
                observer.on_event(event)
        assert self.report is not None
        return self.report
