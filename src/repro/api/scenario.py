"""Declarative descriptions of FlashFlow workloads.

A :class:`Scenario` is a frozen, validated description of *what* to
measure: the network (an explicit :class:`~repro.tornet.network.\
TorNetwork` or a generated one), the measurement team, an adversary mix
(fractions of :class:`~repro.tornet.relay.RelayBehavior` subclasses), a
background-traffic model (constant / per-fingerprint / callable -- the
three forms :func:`repro.core.netmeasure.normalize_background_demand`
unifies), prior estimates, protocol parameters, and the environment
noise model. Scenarios carry no execution policy -- that is
:class:`repro.api.execution.ExecutionConfig` -- and are the single
front door every campaign, example, bench, and test describes its
workload through.

Describing a scenario draws no randomness; :meth:`Scenario.resolve`
materializes it deterministically from the scenario seed. Resolving
twice yields equal-but-distinct relay objects (relays are stateful), so
each :class:`repro.api.campaign.Campaign` run resolves afresh.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

from repro import quick_team
from repro.core.bwauth import FlashFlowAuthority
from repro.core.engine import MeasurementNoise
from repro.core.netmeasure import normalize_background_demand
from repro.core.params import FlashFlowParams
from repro.errors import ConfigurationError, _is_finite_number, _is_int
from repro.rng import fork, seed_from
from repro.tornet.network import TorNetwork, synthesize_network
from repro.tornet.relay import RelayBehavior
from repro.units import gbit

#: The two symbolic prior policies; an explicit dict is also accepted.
PRIOR_POLICIES = ("none", "truth")


@dataclass(frozen=True)
class NetworkSpec:
    """A generated network: size, capacity distribution, seed.

    Fields left ``None`` use :func:`repro.tornet.network.\
synthesize_network`'s July-2019 calibration defaults.
    """

    n_relays: int = 200
    seed: int | None = None
    median: float | None = None
    sigma: float | None = None
    max_capacity: float | None = None
    prefix: str = "relay"
    #: Materialize relay state as fingerprint-indexed column arrays
    #: (:mod:`repro.tornet.columnar`) with relays as lazy views -- the
    #: default, and required for Tor-scale (10^5+) networks. ``False``
    #: builds eager per-relay objects; both are bit-identical.
    columnar: bool = True

    def __post_init__(self) -> None:
        if not _is_int(self.n_relays):
            raise ConfigurationError(
                f"n_relays must be an integer, got {self.n_relays!r}"
            )
        if self.n_relays < 1:
            raise ConfigurationError("a network needs at least one relay")
        if self.seed is not None and not _is_int(self.seed):
            raise ConfigurationError(
                f"seed must be an integer or None, got {self.seed!r}"
            )
        # A NaN median, sigma or cap gives every relay a NaN capacity,
        # and every measurement of it then fails without an error.
        for name in ("median", "sigma", "max_capacity"):
            value = getattr(self, name)
            if value is not None and not _is_finite_number(value):
                raise ConfigurationError(
                    f"{name} must be a finite number or None, got {value!r}"
                )
        for name in ("median", "max_capacity"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value!r}")
        if self.sigma is not None and self.sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma!r}")

    def build(self, default_seed: int) -> TorNetwork:
        kwargs = {
            "n_relays": self.n_relays,
            "seed": self.seed if self.seed is not None else default_seed,
            "prefix": self.prefix,
            "columnar": self.columnar,
        }
        for name in ("median", "sigma", "max_capacity"):
            value = getattr(self, name)
            if value is not None:
                kwargs[name] = value
        return synthesize_network(**kwargs)


@dataclass(frozen=True)
class TeamSpec:
    """A generated measurement team (the paper's 3 x 1 Gbit/s default)."""

    n_measurers: int = 3
    capacity_each: float = gbit(1.0)
    seed: int | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.n_measurers):
            raise ConfigurationError(
                f"n_measurers must be an integer, got {self.n_measurers!r}"
            )
        if self.n_measurers < 1:
            raise ConfigurationError(
                f"n_measurers must be >= 1, got {self.n_measurers!r}"
            )
        # A NaN capacity reaches allocation as "team supplies 0 bit/s".
        if not _is_finite_number(self.capacity_each) or self.capacity_each <= 0:
            raise ConfigurationError(
                "capacity_each must be a finite number > 0, got "
                f"{self.capacity_each!r}"
            )
        if self.seed is not None and not _is_int(self.seed):
            raise ConfigurationError(
                f"seed must be an integer or None, got {self.seed!r}"
            )

    def build(
        self, params: FlashFlowParams | None, default_seed: int
    ) -> FlashFlowAuthority:
        return quick_team(
            n_measurers=self.n_measurers,
            capacity_each=self.capacity_each,
            params=params,
            seed=self.seed if self.seed is not None else default_seed,
        )


def _behavior_factories() -> dict[str, Callable[[int], RelayBehavior]]:
    """Registered behaviours: ``name -> factory``.

    A value is either a plain ``seed -> RelayBehavior`` callable or a
    *factory class* (e.g. :class:`repro.attacks.CollusionFactory`) that
    is instantiated afresh per resolution -- stateful factories must
    not share state (collusion ledgers) between scenario resolutions.
    """
    from repro.attacks.collusion import CollusionFactory
    from repro.attacks.relays import (
        ForgingRelayBehavior,
        RatioCheatingRelayBehavior,
        SelectiveCapacityRelayBehavior,
        TrafficLiarRelayBehavior,
    )

    return {
        "traffic-liar": lambda seed: TrafficLiarRelayBehavior(),
        "ratio-cheater": lambda seed: RatioCheatingRelayBehavior(),
        "forger": lambda seed: ForgingRelayBehavior(seed=seed),
        "selective-capacity": lambda seed: SelectiveCapacityRelayBehavior(
            seed=seed
        ),
        "collusion": CollusionFactory,
    }


@dataclass(frozen=True)
class AdversarySpec:
    """One adversarial population: a behaviour and its relay fraction.

    ``behavior`` is a registered name (``traffic-liar``,
    ``ratio-cheater``, ``forger``, ``selective-capacity``,
    ``collusion``) or a factory ``seed -> RelayBehavior`` for custom
    behaviours; the factory receives a deterministic per-relay seed.
    A custom behaviour must publish a
    :class:`~repro.tornet.relay.BehaviorProgram` through
    ``kernel_program()``: full-simulation campaigns refuse a relay whose
    behaviour has none with a ``ConfigurationError``.
    """

    behavior: str | Callable[[int], RelayBehavior]
    fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ConfigurationError(
                "adversary fraction must be in (0, 1]"
            )
        if isinstance(self.behavior, str):
            if self.behavior not in _behavior_factories():
                raise ConfigurationError(
                    f"unknown adversary behaviour {self.behavior!r}; "
                    f"known: {sorted(_behavior_factories())}"
                )
        elif not callable(self.behavior):
            raise ConfigurationError(
                "behavior must be a registered name or a seed -> "
                "RelayBehavior factory"
            )

    @property
    def name(self) -> str:
        if isinstance(self.behavior, str):
            return self.behavior
        return getattr(self.behavior, "__name__", "custom")

    def factory(self) -> Callable[[int], RelayBehavior]:
        """Resolve the entry into one live ``seed -> behaviour`` factory.

        Class-valued registry entries (stateful factories such as
        ``CollusionFactory``) are instantiated here, once per
        resolution; plain callables pass through unchanged.
        ``AdversaryMix.apply`` resolves each entry exactly once so all
        of an entry's behaviours come from the same factory instance.
        """
        resolved = (
            _behavior_factories()[self.behavior]
            if isinstance(self.behavior, str)
            else self.behavior
        )
        if isinstance(resolved, type):
            return resolved()
        return resolved

    def make(self, seed: int) -> RelayBehavior:
        """One-off behaviour construction (resolves a fresh factory)."""
        return self.factory()(seed)


@dataclass(frozen=True)
class AdversaryMix:
    """Fractions of the network handed to adversarial behaviours.

    Applied to *generated* networks only (mutating relays handed in by
    the caller would be a surprising side effect): relays are chosen
    deterministically from the scenario seed, disjointly across
    entries, in fingerprint order.
    """

    entries: tuple[AdversarySpec, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("an adversary mix needs entries")
        if sum(e.fraction for e in self.entries) > 1.0 + 1e-9:
            raise ConfigurationError(
                "adversary fractions must sum to at most 1"
            )

    def apply(self, network: TorNetwork, seed: int) -> dict[str, str]:
        """Assign behaviours in place; returns fingerprint -> name."""
        assigned: dict[str, str] = {}
        remaining = sorted(network.relays)
        for entry in self.entries:
            factory = entry.factory()
            rng = fork(seed, f"adversary-{entry.name}")
            count = min(
                len(remaining), round(entry.fraction * len(network))
            )
            picked = rng.sample(remaining, count) if count else []
            for fp in picked:
                network[fp].behavior = factory(
                    seed_from(seed, f"adversary-{entry.name}-{fp}")
                )
                assigned[fp] = entry.name
            finalize = getattr(factory, "finalize", None)
            if finalize is not None:
                finalize()
            remaining = [fp for fp in remaining if fp not in assigned]
        return assigned


@dataclass(frozen=True)
class UtilizationBackground:
    """Background client traffic as a fraction of relay capacity.

    Materialized into a per-fingerprint dict against the scenario's
    *resolved* network (deterministically from the scenario seed), so
    scenarios with capacity-proportional background can stay fully
    generated -- no eagerly built stateful network inside the frozen
    description. ``jitter_std`` draws one multiplicative
    ``max(0, gauss(1, std))`` factor per relay from ``fork(seed,
    rng_label)`` in network order; 0 consumes no randomness.
    """

    fraction: float
    jitter_std: float = 0.0
    rng_label: str = "background-utilization"

    def __post_init__(self) -> None:
        if self.fraction < 0:
            raise ConfigurationError("utilization fraction must be >= 0")
        if self.jitter_std < 0:
            raise ConfigurationError("jitter_std must be >= 0")

    def materialize(self, network: TorNetwork, seed: int) -> dict[str, float]:
        if self.jitter_std == 0:
            return {
                fp: relay.true_capacity * self.fraction
                for fp, relay in network.relays.items()
            }
        rng = fork(seed, self.rng_label)
        return {
            fp: relay.true_capacity
            * self.fraction
            * max(0.0, rng.gauss(1.0, self.jitter_std))
            for fp, relay in network.relays.items()
        }


@dataclass
class ResolvedScenario:
    """A scenario materialized into live objects, ready to run."""

    scenario: "Scenario"
    network: TorNetwork
    authority: FlashFlowAuthority
    params: FlashFlowParams
    priors: dict[str, float]
    background: float | dict[str, float] | Callable[[int], float]
    noise: MeasurementNoise | None
    #: Ground-truth capacity per relay (always known in simulation).
    ground_truth: dict[str, float] = field(default_factory=dict)
    #: fingerprint -> adversary behaviour name, for the relays the mix
    #: converted; empty for all-honest scenarios.
    adversaries: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A complete, validated description of one FlashFlow workload."""

    #: Display name (registry scenarios set this to their registered name).
    name: str = "custom"
    #: An explicit network, or a spec to generate one.
    network: TorNetwork | NetworkSpec = field(default_factory=NetworkSpec)
    #: An existing authority (its params rule), or a spec to build one.
    team: FlashFlowAuthority | TeamSpec = field(default_factory=TeamSpec)
    #: Protocol parameters for a generated team; must be None when
    #: ``team`` is an existing authority (the authority's params rule).
    params: FlashFlowParams | None = None
    #: ``None``/"none" = all relays new; "truth" = ground-truth priors;
    #: or an explicit fingerprint -> bit/s dict.
    priors: dict[str, float] | str | None = None
    #: Background client traffic: constant bit/s, per-fingerprint dict,
    #: a callable of the measurement second, or a
    #: :class:`UtilizationBackground` resolved against the network.
    background: (
        float
        | dict[str, float]
        | Callable[[int], float]
        | UtilizationBackground
    ) = 0.0
    #: Adversarial populations (generated networks only).
    adversaries: AdversaryMix | None = None
    #: Environment noise model (None = engine default).
    noise: MeasurementNoise | None = None
    #: Consecutive measurement periods (1 = a single campaign; more
    #: runs the multi-period deployment loop with prior carryover).
    periods: int = 1
    #: Master seed for everything the scenario generates.
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.periods < 1:
            raise ConfigurationError("periods must be >= 1")
        if not isinstance(self.network, (TorNetwork, NetworkSpec)):
            raise ConfigurationError(
                "network must be a TorNetwork or a NetworkSpec"
            )
        if not isinstance(self.team, (FlashFlowAuthority, TeamSpec)):
            raise ConfigurationError(
                "team must be a FlashFlowAuthority or a TeamSpec"
            )
        if (
            isinstance(self.team, FlashFlowAuthority)
            and self.params is not None
        ):
            raise ConfigurationError(
                "pass params via the authority when team is an existing "
                "FlashFlowAuthority"
            )
        if isinstance(self.priors, str) and self.priors not in PRIOR_POLICIES:
            raise ConfigurationError(
                f"priors must be a dict, None, or one of {PRIOR_POLICIES}"
            )
        if isinstance(self.priors, dict):
            # A NaN prior would never fit a slot and burn every attempt
            # on zero-allocation measurements; reject it here instead.
            for fingerprint, prior in self.priors.items():
                if not (
                    isinstance(prior, numbers.Real)
                    and math.isfinite(prior)
                    and prior >= 0
                ):
                    raise ConfigurationError(
                        f"prior for relay {fingerprint} must be a finite "
                        f"capacity >= 0 bit/s, got {prior!r}"
                    )
        if self.adversaries is not None and not isinstance(
            self.network, NetworkSpec
        ):
            raise ConfigurationError(
                "adversary mixes apply to generated networks only; "
                "set behaviours on explicit relays directly"
            )
        # Validates the background form early (constant/dict/callable);
        # UtilizationBackground validates itself and resolves later.
        if not isinstance(self.background, UtilizationBackground):
            normalize_background_demand(self.background)

    def with_overrides(self, **changes) -> "Scenario":
        """A copy with the given fields replaced (frozen-safe)."""
        return replace(self, **changes)

    def resolve(self) -> ResolvedScenario:
        """Materialize the scenario into live, stateful objects."""
        network = (
            self.network
            if isinstance(self.network, TorNetwork)
            else self.network.build(self.seed)
        )
        adversaries = (
            self.adversaries.apply(network, self.seed)
            if self.adversaries is not None
            else {}
        )
        authority = (
            self.team
            if isinstance(self.team, FlashFlowAuthority)
            else self.team.build(self.params, self.seed)
        )
        ground_truth = network.capacities()
        if self.priors is None or self.priors == "none":
            priors: dict[str, float] = {}
        elif self.priors == "truth":
            priors = dict(ground_truth)
        else:
            priors = dict(self.priors)
        background = (
            self.background.materialize(network, self.seed)
            if isinstance(self.background, UtilizationBackground)
            else self.background
        )
        return ResolvedScenario(
            scenario=self,
            network=network,
            authority=authority,
            params=authority.params,
            priors=priors,
            background=background,
            noise=self.noise,
            ground_truth=ground_truth,
            adversaries=adversaries,
        )
