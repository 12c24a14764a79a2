"""Compatibility shims: old entry points, bit-identical via the API."""

import warnings

import pytest

from repro import quick_team
from repro.api import Campaign, ExecutionConfig, Scenario
from repro.core.deployment import Deployment
from repro.core.netmeasure import measure_network, run_campaign
from repro.tornet.network import synthesize_network


def _fresh(seed_net=21, seed_auth=22, n_relays=10):
    return synthesize_network(n_relays=n_relays, seed=seed_net), quick_team(
        seed=seed_auth
    )


@pytest.mark.parametrize("kwarg", ["backend", "max_workers", "engine"])
def test_loose_execution_kwargs_are_gone(kwarg):
    network, auth = _fresh()
    with pytest.raises(TypeError, match=kwarg):
        measure_network(network, auth, full_simulation=False, **{kwarg: None})


def test_plain_calls_do_not_warn():
    network, auth = _fresh()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        measure_network(network, auth, full_simulation=False)


def test_measure_network_shim_bit_identical_to_campaign():
    network, auth = _fresh()
    shim = measure_network(network, auth, full_simulation=True)
    network2, auth2 = _fresh()
    report = Campaign(
        Scenario(network=network2, team=auth2), ExecutionConfig()
    ).run()
    assert shim.estimates == report.estimates
    assert shim.failures == report.failures
    assert shim.slots_elapsed == report.slots_elapsed
    assert shim.measurements_run == report.result.measurements_run
    assert auth.estimates == auth2.estimates


def test_measure_network_shim_with_priors_and_background():
    network, auth = _fresh(seed_net=5, seed_auth=6)
    priors = dict(list(network.capacities().items())[:4])
    background = {fp: 1e6 for fp in network.relays}
    shim = measure_network(
        network, auth, prior_estimates=priors,
        background_demand=background, full_simulation=True,
    )
    network2, auth2 = _fresh(seed_net=5, seed_auth=6)
    report = Campaign(
        Scenario(
            network=network2, team=auth2, priors=priors,
            background=background,
        ),
        ExecutionConfig(),
    ).run()
    assert shim.estimates == report.estimates


def test_run_campaign_returns_full_report():
    network, auth = _fresh()
    report = run_campaign(network, auth, full_simulation=False)
    assert report.result.estimates == report.estimates
    assert report.rounds
    assert report.scenario_name == "measure-network"


def test_deployment_run_period_matches_multi_period_campaign():
    """run_period (shim) and Scenario(periods=N) walk the same loop."""
    periods = 2
    network = synthesize_network(n_relays=6, seed=44)
    deployment = Deployment(authority=quick_team(seed=45))
    records = [deployment.run_period(network) for _ in range(periods)]

    scenario = Scenario(
        network=synthesize_network(n_relays=6, seed=44),
        team=quick_team(seed=45),
        periods=periods,
    )
    report = Campaign(scenario, ExecutionConfig()).run()
    assert len(report.period_results) == periods
    for record, result in zip(records, report.period_results):
        assert record.campaign.estimates == result.estimates
        assert record.campaign.slots_elapsed == result.slots_elapsed
    for record, api_record in zip(records, report.deployment_records):
        assert record.bwfile.serialize() == api_record.bwfile.serialize()
