"""Scenario/ExecutionConfig validation and background normalization."""

import pytest

from repro.api import (
    AdversaryMix,
    AdversarySpec,
    ExecutionConfig,
    NetworkSpec,
    Scenario,
    TeamSpec,
)
from repro import quick_team
from repro.core.netmeasure import measure_network, normalize_background_demand
from repro.core.params import FlashFlowParams
from repro.errors import ConfigurationError
from repro.tornet.network import TorNetwork, synthesize_network
from repro.tornet.relay import Relay
from repro.units import mbit


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_scenario_is_frozen():
    scenario = Scenario()
    with pytest.raises(AttributeError):
        scenario.seed = 7


def test_scenario_with_overrides_replaces_fields():
    scenario = Scenario(seed=1).with_overrides(seed=9, periods=2)
    assert scenario.seed == 9
    assert scenario.periods == 2


@pytest.mark.parametrize("kwargs", [
    {"periods": 0},
    {"network": "not-a-network"},
    {"team": "not-a-team"},
    {"priors": "bogus-policy"},
    {"background": object()},
    {"name": ""},
])
def test_scenario_rejects_bad_fields(kwargs):
    with pytest.raises(ConfigurationError):
        Scenario(**kwargs)


@pytest.mark.parametrize("field,value", [
    # Fractional, bool and string counts used to fail deep in the
    # columnar synthesis with a TypeError (or run a 1-relay network).
    ("n_relays", 2.5),
    ("n_relays", True),
    ("n_relays", "8"),
    ("seed", "x"),
    ("seed", 1.5),
    # A negative median was a math domain error deep in synthesis; a
    # NaN median, sigma or cap gave every relay a NaN capacity, and
    # every measurement then failed without an error.
    ("median", -1),
    ("median", 0.0),
    ("median", float("nan")),
    ("median", float("inf")),
    ("sigma", float("nan")),
    ("sigma", -0.5),
    ("max_capacity", float("nan")),
    ("max_capacity", -1e9),
])
def test_network_spec_rejects_malformed_fields_naming_them(field, value):
    with pytest.raises(ConfigurationError, match=field):
        NetworkSpec(**{field: value})


def test_network_spec_accepts_boundary_values():
    spec = NetworkSpec(n_relays=1, seed=0, median=1.0, sigma=0.0,
                       max_capacity=1.0)
    assert len(spec.build(default_seed=3)) == 1


@pytest.mark.parametrize("prior", [
    float("nan"), float("inf"), float("-inf"), -1.0, "fast",
])
def test_scenario_rejects_malformed_priors_naming_the_relay(prior):
    priors = {"relay-ok": mbit(10), "relay-bad": prior}
    with pytest.raises(ConfigurationError, match="relay-bad"):
        Scenario(priors=priors)
    # The daemon re-prices each period with dataclasses.replace, which
    # runs the same check.
    with pytest.raises(ConfigurationError, match="relay-bad"):
        Scenario().with_overrides(priors=priors)


def test_scenario_accepts_zero_prior():
    assert Scenario(priors={"r": 0.0}).priors == {"r": 0.0}


def test_scenario_rejects_params_with_existing_authority():
    with pytest.raises(ConfigurationError):
        Scenario(team=quick_team(seed=0), params=FlashFlowParams())


def test_scenario_rejects_adversaries_on_explicit_network():
    network = TorNetwork()
    network.add(Relay.with_capacity("r", mbit(10), seed=0))
    mix = AdversaryMix(entries=(AdversarySpec("ratio-cheater", 0.5),))
    with pytest.raises(ConfigurationError):
        Scenario(network=network, adversaries=mix)


def test_adversary_spec_rejects_unknown_name_and_bad_fraction():
    with pytest.raises(ConfigurationError):
        AdversarySpec("no-such-behavior", 0.5)
    with pytest.raises(ConfigurationError):
        AdversarySpec("ratio-cheater", 0.0)
    with pytest.raises(ConfigurationError):
        AdversaryMix(entries=(
            AdversarySpec("ratio-cheater", 0.7),
            AdversarySpec("forger", 0.7),
        ))


@pytest.mark.parametrize("kwargs", [
    {"max_rounds": 0},
    {"analytic_error_std": -0.1},
    # NaN would pin every analytic wobble at the 0.8 floor.
    {"analytic_error_std": float("nan")},
    {"analytic_error_std": float("inf")},
    {"analytic_error_std": "0.02"},
    {"analytic_error_std": True},
    {"max_rounds": 2.5},
    {"max_rounds": True},
    {"max_rounds": "8"},
    {"full_simulation": "no"},
    {"full_simulation": 1},
    {"full_simulation": None},
    {"max_rounds": -1},
    {"max_rounds": None},
    {"analytic_error_std": None},
    {"analytic_error_std": float("-inf")},
    {"full_simulation": 0},
    {"full_simulation": "True"},
    {"trace": 5},
    {"trace": b"trace.jsonl"},
])
def test_execution_config_rejects_bad_fields(kwargs):
    (field,) = kwargs
    with pytest.raises(ConfigurationError, match=field):
        ExecutionConfig(**kwargs)


@pytest.mark.parametrize("field", ["backend", "shadow_backend", "max_workers"])
def test_execution_config_retired_fields_are_unknown(field):
    """The removed knobs are not fields any more: the dataclass's own
    TypeError names them."""
    with pytest.raises(TypeError, match=field):
        ExecutionConfig(**{field: None})


def test_execution_config_accepts_boundary_values():
    config = ExecutionConfig(
        max_rounds=1, analytic_error_std=0, full_simulation=False,
    )
    assert config.max_rounds == 1
    assert ExecutionConfig(analytic_error_std=0.5).analytic_error_std == 0.5


@pytest.mark.parametrize("field,value", [
    # A fractional count raised TypeError from quick_team, a string one
    # TypeError from the range check, and True ran one measurer.
    ("n_measurers", 2.5),
    ("n_measurers", "3"),
    ("n_measurers", True),
    # NaN failed the campaign as "team supplies 0 bit/s"; inf ran.
    ("capacity_each", float("nan")),
    ("capacity_each", float("inf")),
    ("capacity_each", "1e9"),
    ("seed", "x"),
    ("seed", 1.5),
    ("seed", True),
])
def test_team_spec_rejects_malformed_fields_naming_them(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TeamSpec(**{field: value})


def test_team_spec_accepts_boundary_values():
    spec = TeamSpec(n_measurers=1, capacity_each=1_000_000_000, seed=0)
    assert len(spec.build(params=None, default_seed=3).team) == 1


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def test_network_spec_resolution_is_deterministic():
    scenario = Scenario(network=NetworkSpec(n_relays=8), seed=3)
    first = scenario.resolve()
    second = scenario.resolve()
    assert first.network is not second.network
    assert first.ground_truth == second.ground_truth
    assert len(first.network) == 8


def test_truth_priors_resolve_to_capacities():
    scenario = Scenario(network=NetworkSpec(n_relays=5), priors="truth")
    resolved = scenario.resolve()
    assert resolved.priors == resolved.ground_truth


def test_team_spec_builds_authority_with_params():
    params = FlashFlowParams(slot_seconds=10)
    resolved = Scenario(
        team=TeamSpec(n_measurers=2, capacity_each=mbit(500)),
        params=params,
    ).resolve()
    assert len(resolved.authority.team) == 2
    assert resolved.authority.params.slot_seconds == 10
    assert resolved.params is resolved.authority.params


def test_adversary_mix_assignment_is_deterministic_and_disjoint():
    mix = AdversaryMix(entries=(
        AdversarySpec("ratio-cheater", 0.25),
        AdversarySpec("forger", 0.25),
    ))
    scenario = Scenario(
        network=NetworkSpec(n_relays=16), adversaries=mix, seed=11
    )
    first = scenario.resolve()
    second = scenario.resolve()
    assert first.adversaries == second.adversaries
    assert sorted(first.adversaries.values()).count("ratio-cheater") == 4
    assert sorted(first.adversaries.values()).count("forger") == 4
    for fp, name in first.adversaries.items():
        assert first.network[fp].behavior.name == name


# ---------------------------------------------------------------------------
# Background-demand normalization (the three equivalent forms)
# ---------------------------------------------------------------------------

def test_normalize_background_demand_forms():
    constant = normalize_background_demand(5.0)
    assert constant("any") == 5.0
    table = normalize_background_demand({"a": 2.0})
    assert table("a") == 2.0
    assert table("missing") == 0.0
    fn = lambda t: 7.0  # noqa: E731
    wrapped = normalize_background_demand(fn)
    assert wrapped("any") is fn


@pytest.mark.parametrize("bad", [object(), "text", True])
def test_normalize_background_demand_rejects_junk(bad):
    with pytest.raises(ConfigurationError):
        normalize_background_demand(bad)


def test_normalize_background_demand_passes_values_through():
    # Only the *shape* is validated; values flow through identically
    # for all three forms (the engine clamps per second).
    assert normalize_background_demand(-1.0)("fp") == -1.0
    assert normalize_background_demand({"fp": -1.0})("fp") == -1.0


def test_background_forms_give_identical_estimates():
    """Constant, per-fingerprint dict, and callable backgrounds are
    interchangeable: equivalent inputs, bit-identical estimates."""
    demand = mbit(2)
    results = []
    for background in (
        demand,
        None,  # placeholder: dict built per network below
        lambda _t: demand,
    ):
        network = synthesize_network(n_relays=5, seed=31)
        auth = quick_team(seed=32)
        if background is None:
            background = {fp: demand for fp in network.relays}
        results.append(
            measure_network(
                network, auth, background_demand=background,
                full_simulation=True,
            )
        )
    assert results[0].estimates == results[1].estimates == results[2].estimates
    assert (
        results[0].measurements_run
        == results[1].measurements_run
        == results[2].measurements_run
    )
