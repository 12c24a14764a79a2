"""Exact-equality oracles for the analytic estimation kernel.

The contract: lowering a round of scalar ``analytic_estimate`` calls
(``tests/oracles/stateful_engine.py``) into the array walk
(:mod:`repro.kernel.analytic`) changes *no bits* -- estimates,
acceptance thresholds, and accept decisions are
``==`` to the stateful scalar loop for every seed, prior shape, and
background form, and whole analytic campaigns are ``==`` to campaigns
whose rounds call ``analytic_estimate`` once per job.
"""

import pytest

from repro import quick_team
from repro.api import Campaign, ExecutionConfig, Scenario
from repro.core.allocation import allocate_capacity, total_allocated
from repro.core.engine import MeasurementEngine
from repro.core.params import FlashFlowParams
from repro.kernel.analytic import (
    compile_analytic_round,
    execute_analytic_round,
    run_analytic_round,
)
from repro.rng import fork
from repro.tornet.network import synthesize_network
from repro.tornet.relay import Relay
from repro.units import mbit
from tests.oracles.stateful_engine import (
    AnalyticInputs,
    analytic_estimate,
    analytic_finish,
    analytic_inputs,
    use_stateful_reference,
)


class _Job:
    """The duck-typed shape run_analytic_round consumes."""

    __slots__ = ("relay", "assignments", "wobble", "capped")

    def __init__(self, relay, assignments, wobble, capped):
        self.relay = relay
        self.assignments = assignments
        self.wobble = wobble
        self.capped = capped


def _round_jobs(n=40, seed=3):
    """A mixed round: plain, rate-limited, and capped jobs."""
    params = FlashFlowParams()
    auth = quick_team(seed=seed)
    rng = fork(seed, "analytic-oracle")
    jobs = []
    for i in range(n):
        relay = Relay.with_capacity(
            f"r{i}", mbit(40 + 37 * (i % 13)), seed=seed * 1000 + i
        )
        if i % 5 == 0:
            relay.set_rate_limit(mbit(30 + i))
        jobs.append(
            _Job(
                relay=relay,
                assignments=allocate_capacity(auth.team, mbit(90 + 11 * i)),
                wobble=max(0.8, rng.gauss(1.0, 0.02)),
                capped=(i % 7 == 0),
            )
        )
    return params, jobs


# ---------------------------------------------------------------------------
# Round-level oracle: the array walk vs the scalar loop, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 9])
def test_round_walk_matches_scalar_loop_exactly(seed):
    params, jobs = _round_jobs(seed=seed)
    engine = MeasurementEngine()
    result = run_analytic_round(engine, jobs, params)
    for i, job in enumerate(jobs):
        z = analytic_estimate(
            engine, job.relay, job.assignments, params, job.wobble
        )
        threshold = params.acceptance_threshold(total_allocated(job.assignments))
        assert result.estimates[i] == z
        assert result.thresholds[i] == threshold
        assert result.accepted[i] == (z < threshold or job.capped)


def test_compiled_capacity_matches_the_relay_property():
    """The compile pass inlines Relay.true_capacity's min chain."""
    params, jobs = _round_jobs()
    compiled = compile_analytic_round(jobs, params)
    assert compiled.capacity.tolist() == [j.relay.true_capacity for j in jobs]
    assert compiled.allocated.tolist() == [
        total_allocated(j.assignments) for j in jobs
    ]


def test_engine_split_is_the_closed_form():
    """analytic_inputs/analytic_finish == analytic_estimate == the formula."""
    params = FlashFlowParams()
    auth = quick_team(seed=6)
    relay = Relay.with_capacity("r", mbit(100), seed=60)
    assignments = allocate_capacity(auth.team, mbit(900))
    engine = MeasurementEngine()
    inputs = analytic_inputs(engine, relay, assignments, params)
    assert inputs == AnalyticInputs(
        capacity=relay.true_capacity,
        allocated=total_allocated(assignments),
        multiplier=params.multiplier,
    )
    for wobble in (0.85, 1.0, 1.1):
        assert analytic_finish(inputs, wobble) == analytic_estimate(
            engine, relay, assignments, params, wobble
        ) == min(
            relay.true_capacity * wobble,
            total_allocated(assignments) / params.multiplier,
        )


def test_empty_round():
    params = FlashFlowParams()
    result = execute_analytic_round(compile_analytic_round([], params))
    assert result.estimates == [] and result.accepted == []


# ---------------------------------------------------------------------------
# Campaign-level oracle: scalar reference vs vectorized analytic campaigns
# ---------------------------------------------------------------------------

def _analytic_campaign(*, seed_net, seed_auth, priors=None, background=0.0,
                       periods=1, n_relays=40):
    network = synthesize_network(n_relays=n_relays, seed=seed_net)
    authority = quick_team(seed=seed_auth)
    campaign = Campaign(
        Scenario(
            network=network,
            team=authority,
            priors=priors,
            background=background,
            periods=periods,
        ),
        ExecutionConfig(full_simulation=False),
    )
    return campaign.run()


def _analytic_campaigns(monkeypatch, **kwargs):
    """(scalar reference, kernel) reports of one analytic campaign."""
    with monkeypatch.context() as patch:
        use_stateful_reference(patch)
        reference = _analytic_campaign(**kwargs)
    return reference, _analytic_campaign(**kwargs)


def _assert_reports_identical(a, b):
    assert a.estimates == b.estimates
    assert a.result.failures == b.result.failures
    assert a.result.slots_elapsed == b.result.slots_elapsed
    assert a.result.measurements_run == b.result.measurements_run
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.measurements == rb.measurements


@pytest.mark.parametrize("seed_net,seed_auth", [(31, 32), (73, 74), (5, 6)])
def test_analytic_campaigns_match_the_scalar_reference(
    seed_net, seed_auth, monkeypatch
):
    reference, report = _analytic_campaigns(
        monkeypatch, seed_net=seed_net, seed_auth=seed_auth
    )
    assert len(reference.estimates) > 0
    _assert_reports_identical(reference, report)


@pytest.mark.parametrize(
    "priors",
    [None, "truth", {}],
    ids=["cold", "truth", "empty-dict"],
)
def test_analytic_campaigns_identical_across_prior_shapes(priors, monkeypatch):
    _assert_reports_identical(*_analytic_campaigns(
        monkeypatch, seed_net=41, seed_auth=42, priors=priors
    ))


def test_analytic_campaigns_identical_across_background_forms(monkeypatch):
    demand = mbit(25.0)
    for background in (demand, lambda _t: demand, {"relay0": demand}):
        _assert_reports_identical(*_analytic_campaigns(
            monkeypatch, seed_net=51, seed_auth=52, background=background
        ))


def test_multi_period_analytic_deployment_identical(monkeypatch):
    reference, report = _analytic_campaigns(
        monkeypatch, seed_net=61, seed_auth=62, periods=3, n_relays=20
    )
    _assert_reports_identical(reference, report)
    assert len(reference.period_results) == 3
