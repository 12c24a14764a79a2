"""Attack scenarios vs the §5 inflation bound, and the sweep helper.

Every registry attack scenario must keep ``estimate/truth`` for every
adversarial relay under ``1/(1-r)`` (plus a small noise slack) -- the
paper's central security claim -- while the identical lie against
TorFlow's self-report scaling inflates by the full claimed factor.
"""

import pytest

from repro import quick_team
from repro.api.scenarios import get_scenario, run_scenario
from repro.attacks import (
    CollusionBehavior,
    CollusionFactory,
    CollusionGroup,
    inflation_bound,
    inflation_sweep,
    torflow_self_report_attack,
)
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine, MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.tornet.relay import Relay
from repro.units import mbit
from tests.oracles.stateful_engine import stateful_run

#: Noise slack: env/socket jitter moves estimates a few percent.
SLACK = 1.08

ATTACK_RUNS = [
    ("inflation-attack", {}),
    ("inflation-attack", {"behavior": "traffic-liar"}),
    ("inflation-attack", {"behavior": "forger"}),
    ("inflation-attack", {"behavior": "selective-capacity"}),
    ("collusion-attack", {}),
    ("inflation-sweep", {}),
    ("inflation-sweep", {"behavior": "collusion", "adversary_fraction": 0.5}),
]


@pytest.mark.parametrize("name,overrides", ATTACK_RUNS)
def test_every_attack_scenario_respects_the_inflation_bound(name, overrides):
    report = run_scenario(name, n_relays=12, **overrides)
    inflations = report.adversary_inflation()
    assert inflations, "scenario assigned no adversaries"
    bound = inflation_bound(FlashFlowParams().ratio)
    for fp, inflation in inflations.items():
        assert inflation <= bound * SLACK, (name, fp, inflation)


def test_collusion_inflates_but_stays_bounded():
    """The pooled claims do inflate (the attack is real) yet the
    per-relay clamp keeps every colluder under 1/(1-r)."""
    report = run_scenario("collusion-attack", n_relays=12)
    inflations = report.adversary_inflation()
    bound = inflation_bound(FlashFlowParams().ratio)
    assert max(inflations.values()) > 1.05
    assert max(inflations.values()) <= bound * SLACK


def test_collusion_cliques_form_and_fold_singletons():
    """5 colluders at group_size 2 -> cliques of 2 and 3 (finalize
    folds the trailing singleton); every member shares its ledger."""
    scenario = get_scenario(
        "collusion-attack", n_relays=10, adversary_fraction=0.5
    )
    resolved = scenario.resolve()
    behaviors = [
        resolved.network[fp].behavior for fp in resolved.adversaries
    ]
    assert len(behaviors) == 5
    assert all(isinstance(b, CollusionBehavior) for b in behaviors)
    groups = {id(b._group): b._group for b in behaviors}
    assert sorted(len(g.members) for g in groups.values()) == [2, 3]
    for group in groups.values():
        for member in group.members:
            assert member._group is group


def test_resolving_twice_never_shares_ledgers():
    scenario = get_scenario("collusion-attack", n_relays=8)
    first = scenario.resolve()
    second = scenario.resolve()
    groups_first = {
        id(first.network[fp].behavior._group) for fp in first.adversaries
    }
    groups_second = {
        id(second.network[fp].behavior._group) for fp in second.adversaries
    }
    assert not groups_first & groups_second


def _collusion_relays():
    """Two cliques interleaved with honest relays."""
    cliques = {"a": CollusionGroup(), "b": CollusionGroup()}
    relays = []
    for i, clique in enumerate(["a", None, "b", "a", None, "b", "a", "b"]):
        behavior = CollusionBehavior(cliques[clique]) if clique else None
        relays.append(
            Relay.with_capacity(
                f"c{i}", mbit(80 + 35 * i), seed=700 + i, behavior=behavior
            )
        )
    return relays


def _collusion_specs(team, relays, round_):
    params = FlashFlowParams()
    return [
        MeasurementSpec(
            target=relay,
            assignments=allocate_capacity(
                team, params.allocation_factor * mbit(80 + 35 * i)
            ),
            params=params,
            seed=100 * round_ + i,
            background_demand=mbit(20),
            enforce_admission=False,
        )
        for i, relay in enumerate(relays)
    ]


def test_collusion_batch_matches_stateful_reference():
    """Colluders compile: each slot reads its clique's ledger when it
    compiles, and clique members of one batch run in ordered waves, so
    two interleaved cliques give the stateful spec-order walk's exact
    outcomes, relay state and ledger entries, round after round."""
    team = quick_team(seed=3).team
    relays, twins = _collusion_relays(), _collusion_relays()
    engine = MeasurementEngine()
    for round_ in (1, 2):
        outcomes = engine.run_many(_collusion_specs(team, relays, round_))
        reference = [
            stateful_run(engine, spec)
            for spec in _collusion_specs(team, twins, round_)
        ]
        assert outcomes == reference
    # By the second round every colluder claims its peers' bytes on top
    # of the 20 Mbit/s it forwards; honest relays claim no more than that.
    for relay, outcome in zip(relays, outcomes):
        claimed = min(outcome.per_second_background_reported)
        if isinstance(relay.behavior, CollusionBehavior):
            assert claimed > mbit(20), relay.fingerprint
        else:
            assert max(outcome.per_second_background_reported) <= mbit(20)
    for relay, twin in zip(relays, twins):
        assert relay._rng.getstate() == twin._rng.getstate()
        assert vars(relay.observed_bw) == vars(twin.observed_bw)
        if isinstance(relay.behavior, CollusionBehavior):
            assert relay.behavior._last_measurement_bytes \
                == twin.behavior._last_measurement_bytes > 0


def test_collusion_factory_validation():
    with pytest.raises(ValueError):
        CollusionFactory(group_size=1)


def test_collusion_report_pools_peer_measurement_bytes():
    factory = CollusionFactory(group_size=2)
    a, b = factory(0), factory(1)
    a.note_measurement(1000.0, relay=None)
    b.note_measurement(400.0, relay=None)
    # Each claims its real traffic plus the peer's measurement bytes.
    assert a.report_background(50.0, relay=None) == 50.0 + 400.0
    assert b.report_background(0.0, relay=None) == 1000.0


def test_inflation_sweep_helper():
    points = inflation_sweep(
        behaviors=("ratio-cheater", "collusion"),
        fractions=(0.25,),
        n_relays=8,
    )
    assert len(points) == 2
    for point in points:
        assert point.n_adversaries >= 1
        assert point.within_bound
        assert point.max_inflation <= point.bound * SLACK
        # The same lie against TorFlow's self-report scaling is
        # unbounded: a 100x claim yields 100x weight.
        assert point.torflow_inflation == torflow_self_report_attack(
            1.0, 100.0
        )
        assert point.torflow_inflation > point.bound * 10
