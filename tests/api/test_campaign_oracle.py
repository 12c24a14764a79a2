"""Oracle tests: Campaign.run() is bit-identical to the pre-PR loop.

``_reference_measure_network`` below ports the ``measure_network`` body
as it stood before the scenario API absorbed it, packing each round
with the historical per-slot queue rescan
(:func:`tests.oracles.slot_pack.reference_first_fit`) and running each
measurement through the stateful ``MeasurementEngine.run``. Registered
scenarios resolved deterministically must produce the *exact* same
estimates through ``Campaign.run()`` -- which runs each round on the
vectorized kernel -- as that historical loop produces on freshly
resolved, identical inputs.
"""

from typing import Callable

import pytest

from repro.api import (
    Campaign,
    ExecutionConfig,
    default_execution_for,
    get_scenario,
)
from repro.core.allocation import allocate_capacity, total_allocated
from repro.core.engine import MeasurementEngine, MeasurementSpec
from repro.core.netmeasure import CampaignResult
from repro.rng import fork
from tests.oracles.slot_pack import reference_first_fit
from tests.oracles.stateful_engine import use_stateful_reference


def _reference_measure_network(
    network,
    authority,
    prior_estimates=None,
    background_demand=0.0,
    max_rounds: int = 8,
    full_simulation: bool = True,
    noise=None,
    analytic_error_std: float = 0.02,
    engine=None,
) -> CampaignResult:
    """The pre-API ``measure_network`` loop, preserved as an oracle."""
    params = authority.params
    team = authority.team
    team_capacity = authority.team_capacity()
    prior = prior_estimates or {}
    result = CampaignResult(slot_seconds=params.slot_seconds)
    rng = fork(authority.seed, "campaign-analytic")
    if engine is None:
        engine = getattr(authority, "engine", None) or MeasurementEngine()

    old = [fp for fp in network.relays if fp in prior]
    new = [fp for fp in network.relays if fp not in prior]
    old.sort(key=lambda fp: prior[fp], reverse=True)
    queue = (
        [(fp, prior[fp], 0) for fp in old]
        + [(fp, params.new_relay_seed, 0) for fp in new]
    )

    def required_for(z0: float) -> float:
        return min(params.allocation_factor * max(z0, 1.0), team_capacity)

    slot_index = 0
    while queue:
        jobs = []
        for this_slot in reference_first_fit(
            [required_for(z0) for _, z0, _ in queue], team_capacity
        ):
            for fp, z0, rounds in (queue[i] for i in this_slot):
                required = required_for(z0)
                jobs.append(
                    (
                        fp,
                        z0,
                        rounds,
                        slot_index,
                        required < params.allocation_factor * z0,
                        allocate_capacity(team, required),
                        (
                            background_demand.get(fp, 0.0)
                            if isinstance(background_demand, dict)
                            else background_demand
                        ),
                        (
                            None
                            if full_simulation
                            else max(0.8, rng.gauss(1.0, analytic_error_std))
                        ),
                    )
                )
            slot_index += 1

        if full_simulation:
            specs = [
                MeasurementSpec(
                    target=network[fp],
                    assignments=assignments,
                    params=params,
                    network=authority.network,
                    background_demand=bg,
                    seed=authority.seed + slot * 7919 + rounds,
                    bwauth_id=authority.name,
                    period_index=0,
                    enforce_admission=False,
                    noise=noise,
                )
                for fp, z0, rounds, slot, capped, assignments, bg, _ in jobs
            ]
            outcomes = [engine.run(spec) for spec in specs]
            results = [
                (o.estimate, o.failed, o.failure_reason) for o in outcomes
            ]
        else:
            results = [
                (
                    engine.analytic_estimate(
                        network[fp], assignments, params, wobble
                    ),
                    False,
                    None,
                )
                for fp, z0, rounds, slot, capped, assignments, bg, wobble
                in jobs
            ]

        retries = []
        for job, (z, failed, reason) in zip(jobs, results):
            fp, z0, rounds, slot, capped, assignments, bg, _ = job
            result.measurements_run += 1
            if failed:
                result.failures[fp] = reason or "measurement failed"
                continue
            threshold = params.acceptance_threshold(
                total_allocated(assignments)
            )
            if z < threshold or capped:
                result.estimates[fp] = z
                authority.estimates[fp] = z
            elif rounds + 1 >= max_rounds:
                result.failures[fp] = "did not converge"
            else:
                retries.append((fp, max(z, 2.0 * z0), rounds + 1))
        queue = retries

    result.slots_elapsed = slot_index
    return result


def _reference_for_scenario(scenario, execution: ExecutionConfig):
    """Run the oracle loop on a fresh resolution of ``scenario``."""
    resolved = scenario.resolve()
    background: dict | float | Callable = resolved.background
    return _reference_measure_network(
        resolved.network,
        resolved.authority,
        prior_estimates=resolved.priors,
        background_demand=background,
        max_rounds=execution.max_rounds,
        full_simulation=execution.full_simulation,
        noise=resolved.noise,
        analytic_error_std=execution.analytic_error_std,
    )


def test_fig06_accuracy_campaign_matches_reference():
    scenario = get_scenario("fig06-accuracy", n_relays=8, seed=6)
    execution = ExecutionConfig()
    reference = _reference_for_scenario(scenario, execution)
    report = Campaign(scenario, execution).run()
    assert report.estimates == reference.estimates
    assert report.failures == reference.failures
    assert report.slots_elapsed == reference.slots_elapsed
    assert report.measurements_run == reference.measurements_run


def test_whole_network_efficiency_matches_reference():
    scenario = get_scenario("whole-network-efficiency", n_relays=60, seed=71)
    execution = ExecutionConfig(full_simulation=False)
    reference = _reference_for_scenario(scenario, execution)
    report = Campaign(scenario, execution).run()
    assert report.estimates == reference.estimates
    assert report.slots_elapsed == reference.slots_elapsed
    assert report.measurements_run == reference.measurements_run


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("fig06-accuracy", {"n_relays": 6}),
        ("whole-network-efficiency", {"n_relays": 24}),
        ("background-traffic", {"n_relays": 6}),
        ("inflation-attack", {"n_relays": 8}),
        ("collusion-attack", {"n_relays": 8}),
        ("multi-period-deployment", {"n_relays": 4, "periods": 2}),
        ("shadow-measurement", {"n_relays": 6}),
    ],
)
def test_every_registered_scenario_matches_stateful_reference(
    name, overrides, monkeypatch
):
    """Each canned scenario produces bit-identical estimates and slot
    counts on the kernel and on the stateful references (per-spec
    ``MeasurementEngine.run``, per-job ``analytic_estimate``), with a
    fresh resolution per run: relays are stateful."""
    execution = default_execution_for(name)
    with monkeypatch.context() as patch:
        use_stateful_reference(patch)
        reference = Campaign(get_scenario(name, **overrides), execution).run()
    report = Campaign(get_scenario(name, **overrides), execution).run()
    assert reference.estimates, name
    assert report.estimates == reference.estimates, name
    assert report.failures == reference.failures, name
    assert report.slots_elapsed == reference.slots_elapsed, name
    assert report.measurements_run == reference.measurements_run, name


def test_tor_scale_pack_matches_reference():
    """A cold 1,500-relay analytic campaign: six rounds retry hundreds
    of relays over about 400 slots, so the first-fit index is checked
    on long queues in retry order, not only the small ones above."""
    scenario = get_scenario("whole-network-efficiency", n_relays=1500)
    execution = ExecutionConfig(full_simulation=False)
    reference = _reference_for_scenario(scenario, execution)
    report = Campaign(scenario, execution).run()
    assert len(report.rounds) > 2
    assert report.slots_elapsed > 300
    assert sum(r.n_retried for r in report.rounds) > 100
    assert report.estimates == reference.estimates
    assert report.failures == reference.failures
    assert report.slots_elapsed == reference.slots_elapsed
    assert report.measurements_run == reference.measurements_run
