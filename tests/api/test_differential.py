"""Differential suite: generated scenarios, kernels vs stateful references.

Hypothesis builds :class:`~repro.api.scenario.Scenario` objects over
network size, an adversary mix drawn from all five registered behaviours
(collusion included), background forms, prior shapes, periods and
seeds. Each runs through :class:`~repro.api.Campaign` twice -- as
shipped, on the vectorized kernels, and under
:func:`tests.oracles.stateful_engine.use_stateful_reference` -- with
full and with analytic execution. Reports and every relay's final state
must be ``==``, and no adversary may inflate its estimate past the §5
bound ``1/(1-r)``.

Tier-1 runs a small example budget. ``DIFFERENTIAL_EXAMPLES`` raises it
(the ``differential`` CI job runs ten times as many); only this module
reads that variable.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Campaign, ExecutionConfig
from repro.api.scenario import (
    AdversaryMix,
    AdversarySpec,
    NetworkSpec,
    Scenario,
    UtilizationBackground,
)
from repro.core.params import FlashFlowParams
from repro.units import mbit
from tests.oracles.stateful_engine import use_stateful_reference

#: Examples per execution mode: the tier-1 budget unless overridden.
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "40"))

BEHAVIORS = (
    "traffic-liar", "ratio-cheater", "forger", "selective-capacity",
    "collusion",
)


def _rush_hour(second: int) -> float:
    """Background demand that varies with the measurement second."""
    return mbit(8) + mbit(3) * (second % 7)


BACKGROUNDS = (0.0, mbit(25), UtilizationBackground(0.1, jitter_std=0.2),
               _rush_hour)


@st.composite
def adversary_mixes(draw):
    names = draw(
        st.lists(st.sampled_from(BEHAVIORS), max_size=2, unique=True)
    )
    if not names:
        return None
    return AdversaryMix(
        entries=tuple(
            AdversarySpec(
                behavior=name, fraction=draw(st.sampled_from((0.15, 0.3, 0.45)))
            )
            for name in names
        )
    )


@st.composite
def scenarios(draw):
    return Scenario(
        name="differential",
        network=NetworkSpec(
            n_relays=draw(st.integers(4, 24)), median=mbit(100), sigma=0.8
        ),
        priors=draw(st.sampled_from((None, "truth"))),
        background=draw(st.sampled_from(BACKGROUNDS)),
        adversaries=draw(adversary_mixes()),
        periods=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _run(scenario: Scenario, execution: ExecutionConfig):
    campaign = Campaign(scenario, execution)
    report = campaign.run()
    relays = campaign.resolved.network
    state = {
        fp: (
            relays[fp]._rng.getstate(),
            relays[fp].bucket.tokens if relays[fp].bucket else None,
            vars(relays[fp].observed_bw),
        )
        for fp in relays.relays
    }
    return report, state


@pytest.mark.parametrize("full_simulation", [True, False],
                         ids=["full", "analytic"])
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_generated_scenarios_match_the_stateful_references(
    scenario, full_simulation
):
    execution = ExecutionConfig(full_simulation=full_simulation)
    with pytest.MonkeyPatch.context() as patch:
        use_stateful_reference(patch)
        reference, reference_state = _run(scenario, execution)
    report, state = _run(scenario, execution)

    assert report.estimates == reference.estimates
    assert report.failures == reference.failures
    assert report.timeline() == reference.timeline()
    assert report.slots_elapsed == reference.slots_elapsed
    assert report.cells_checked == reference.cells_checked
    assert state == reference_state

    bound = FlashFlowParams().inflation_bound
    for fp, inflation in report.adversary_inflation().items():
        assert inflation <= bound, (fp, report.adversaries[fp], inflation)
