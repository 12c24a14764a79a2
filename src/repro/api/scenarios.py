"""Canned paper scenarios and the ``@register_scenario`` registry.

Every named workload the examples, benches, CI smoke runs, and tests
invoke lives here: accuracy runs shaped like the paper's Figures 1/6,
the whole-network scheduling-efficiency sweep, background-traffic
campaigns (Figure 7), the §5 inflation-attack mix, and the §4.3
multi-period deployment. Each entry is a factory returning a
:class:`~repro.api.scenario.Scenario` (plus an optional default
:class:`~repro.api.execution.ExecutionConfig`), parameterized by
keyword overrides so callers can scale it up or down::

    from repro.api import run_scenario
    report = run_scenario("fig06-accuracy", n_relays=6)
    report = run_scenario("inflation-attack", adversary_fraction=0.5)

Adding a new scenario to the reproduction is now a one-function patch:

    @register_scenario("my-scenario", description="...")
    def my_scenario(**overrides) -> Scenario: ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.api.execution import ExecutionConfig
from repro.api.scenario import (
    AdversaryMix,
    AdversarySpec,
    NetworkSpec,
    Scenario,
    TeamSpec,
    UtilizationBackground,
)
from repro.core.engine import MeasurementNoise
from repro.errors import ConfigurationError
from repro.units import mbit


@dataclass(frozen=True)
class RegisteredScenario:
    """One registry entry: the factory plus its metadata."""

    name: str
    factory: Callable[..., Scenario]
    description: str = ""
    #: Execution config used when the caller passes none (e.g. the
    #: efficiency sweep defaults to the analytic fast path).
    default_execution: ExecutionConfig | None = None


_REGISTRY: dict[str, RegisteredScenario] = {}


def register_scenario(
    name: str,
    description: str = "",
    default_execution: ExecutionConfig | None = None,
):
    """Decorator registering ``factory(**overrides) -> Scenario``."""

    def deco(factory: Callable[..., Scenario]):
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} already registered")
        _REGISTRY[name] = RegisteredScenario(
            name=name,
            factory=factory,
            description=description,
            default_execution=default_execution,
        )
        return factory

    return deco


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def scenario_registry() -> dict[str, RegisteredScenario]:
    return dict(_REGISTRY)


def get_scenario(name: str, **overrides) -> Scenario:
    """Build a registered scenario, applying keyword overrides."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        )
    return _REGISTRY[name].factory(**overrides)


def default_execution_for(name: str) -> ExecutionConfig:
    entry = _REGISTRY.get(name)
    if entry is not None and entry.default_execution is not None:
        return entry.default_execution
    return ExecutionConfig()


def run_scenario(
    name: str,
    execution: ExecutionConfig | None = None,
    observers: Sequence = (),
    engine=None,
    **overrides,
):
    """Resolve and run a registered scenario; returns the report."""
    from repro.api.campaign import Campaign

    scenario = get_scenario(name, **overrides)
    if execution is None:
        execution = default_execution_for(name)
    return Campaign(scenario, execution, engine=engine).run(
        observers=observers
    )


# ---------------------------------------------------------------------------
# Canned paper scenarios
# ---------------------------------------------------------------------------

@register_scenario(
    "fig06-accuracy",
    description=(
        "Figure 1/6-style accuracy run: a small network with known "
        "ground truth, accurate priors, full per-second simulation; "
        "report.error_vs_truth() reproduces the paper's accuracy claim."
    ),
)
def _fig06_accuracy(
    n_relays: int = 12, seed: int = 6, periods: int = 1, **overrides
) -> Scenario:
    return Scenario(
        name="fig06-accuracy",
        network=NetworkSpec(n_relays=n_relays, median=mbit(120), sigma=0.9),
        team=TeamSpec(),
        priors="truth",
        periods=periods,
        seed=seed,
        description="accuracy vs ground truth under good priors",
        **overrides,
    )


@register_scenario(
    "whole-network-efficiency",
    description=(
        "The §7 scheduling-efficiency sweep: measure a July-2019-shaped "
        "network cold (no priors) and count slots; defaults to the "
        "analytic fast path where only slot accounting matters."
    ),
    default_execution=ExecutionConfig(full_simulation=False),
)
def _whole_network_efficiency(
    n_relays: int = 200, seed: int = 71, **overrides
) -> Scenario:
    return Scenario(
        name="whole-network-efficiency",
        network=NetworkSpec(n_relays=n_relays),
        team=TeamSpec(),
        priors=None,
        seed=seed,
        description="slot-count efficiency of the greedy scheduler",
        **overrides,
    )


@register_scenario(
    "background-traffic",
    description=(
        "Figure 7-style campaign with client traffic present at every "
        "relay during measurement (constant fraction of capacity, "
        "honest reporting, r-ratio clamp in effect)."
    ),
)
def _background_traffic(
    n_relays: int = 20,
    seed: int = 7,
    utilization: float = 0.30,
    **overrides,
) -> Scenario:
    return Scenario(
        name="background-traffic",
        network=NetworkSpec(n_relays=n_relays),
        team=TeamSpec(),
        priors="truth",
        background=UtilizationBackground(fraction=utilization),
        seed=seed,
        description="measurement under per-relay background client load",
        **overrides,
    )


@register_scenario(
    "inflation-attack",
    description=(
        "The §5 bandwidth-inflation mix: a fraction of relays run the "
        "ratio-cheating behaviour (no background traffic, full claimed "
        "allowance); report.adversary_inflation() stays under the "
        "1/(1-r) bound."
    ),
)
def _inflation_attack(
    n_relays: int = 24,
    seed: int = 9,
    adversary_fraction: float = 0.25,
    behavior: str = "ratio-cheater",
    **overrides,
) -> Scenario:
    return Scenario(
        name="inflation-attack",
        network=NetworkSpec(n_relays=n_relays, median=mbit(100), sigma=0.8),
        team=TeamSpec(),
        priors="truth",
        adversaries=AdversaryMix(
            entries=(
                AdversarySpec(behavior=behavior, fraction=adversary_fraction),
            )
        ),
        seed=seed,
        description="adversarial relays inflating toward 1/(1-r)",
        **overrides,
    )


@register_scenario(
    "collusion-attack",
    description=(
        "Multi-relay bandwidth inflation (TorMult-style): colluding "
        "cliques claim each other's measurement traffic as background. "
        "The per-relay clamp keeps report.adversary_inflation() under "
        "1/(1-r) even though the claimed bytes really exist on the "
        "wire; the same attack inflates TorFlow unboundedly."
    ),
)
def _collusion_attack(
    n_relays: int = 16,
    seed: int = 10,
    adversary_fraction: float = 0.5,
    **overrides,
) -> Scenario:
    return Scenario(
        name="collusion-attack",
        network=NetworkSpec(n_relays=n_relays, median=mbit(100), sigma=0.8),
        team=TeamSpec(),
        priors="truth",
        adversaries=AdversaryMix(
            entries=(
                AdversarySpec(
                    behavior="collusion", fraction=adversary_fraction
                ),
            )
        ),
        seed=seed,
        description="colluding cliques pooling measurement-traffic claims",
        **overrides,
    )


@register_scenario(
    "inflation-sweep",
    description=(
        "One grid point of the §5 inflation sweep: a small "
        "ground-truth network with a parameterized adversary behaviour "
        "and fraction. repro.attacks.inflation_sweep() drives this "
        "across behaviours x fractions and checks every point against "
        "the 1/(1-r) bound."
    ),
)
def _inflation_sweep(
    n_relays: int = 16,
    seed: int = 13,
    adversary_fraction: float = 0.25,
    behavior: str = "ratio-cheater",
    **overrides,
) -> Scenario:
    return Scenario(
        name="inflation-sweep",
        network=NetworkSpec(n_relays=n_relays, median=mbit(80), sigma=0.6),
        team=TeamSpec(),
        priors="truth",
        adversaries=AdversaryMix(
            entries=(
                AdversarySpec(behavior=behavior, fraction=adversary_fraction),
            )
        ),
        seed=seed,
        description="one behaviour x fraction point of the inflation sweep",
        **overrides,
    )


@register_scenario(
    "multi-period-deployment",
    description=(
        "The §4.3 continuous-operation loop: several 24-hour periods "
        "over one network, estimates carried forward as priors and "
        "aged out, one bandwidth file per period."
    ),
)
def _multi_period_deployment(
    n_relays: int = 12, seed: int = 44, periods: int = 3, **overrides
) -> Scenario:
    return Scenario(
        name="multi-period-deployment",
        network=NetworkSpec(n_relays=n_relays),
        team=TeamSpec(),
        priors=None,
        periods=periods,
        seed=seed,
        description="prior carryover and aging across measurement periods",
        **overrides,
    )


@register_scenario(
    "continuous-deployment",
    description=(
        "The per-period workload of the continuous bwauth daemon "
        "(repro.service): a generated network measured one period at a "
        "time, priors and churn supplied by the service layer. periods "
        "stays 1 -- the daemon owns the period loop, prior carryover, "
        "and publication cadence."
    ),
)
def _continuous_deployment(
    n_relays: int = 30, seed: int = 71, **overrides
) -> Scenario:
    return Scenario(
        name="continuous-deployment",
        network=NetworkSpec(n_relays=n_relays),
        team=TeamSpec(),
        priors=None,
        seed=seed,
        description="base workload for python -m repro.service",
        **overrides,
    )


@register_scenario(
    "shadow-measurement",
    description=(
        "The §7 Shadow measurement phase in isolation: congested-"
        "topology noise, per-relay background client traffic, cold "
        "priors -- the workload behind flashflow_weights_for."
    ),
)
def _shadow_measurement(
    n_relays: int = 24, seed: int = 5, utilization: float = 0.35, **overrides
) -> Scenario:
    from repro.shadow.experiment import SHADOW_MEASUREMENT_NOISE

    return Scenario(
        name="shadow-measurement",
        network=NetworkSpec(n_relays=n_relays, prefix="pub"),
        team=TeamSpec(),
        priors=None,
        background=UtilizationBackground(
            fraction=utilization,
            jitter_std=0.4,
            rng_label="flashflow-shadow-bg",
        ),
        noise=SHADOW_MEASUREMENT_NOISE,
        seed=seed,
        description="shadow-style measurement with congestion noise",
        **overrides,
    )
