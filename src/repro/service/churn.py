"""Deterministic network-churn feeds for continuous deployments.

The real Tor network is a moving target: the paper's §7 consensus data
shows a median of 3 (max 98) relays *arriving* per hourly consensus,
with relays also leaving and changing operator rate limits. A
:class:`ChurnConfig` describes that motion as rates; ``
churn_events_for_period`` expands it into a concrete, deterministic
:class:`ChurnEvent` list for one period -- a pure function of
``(churn seed, period index, current membership)``, so checkpoint/
resume needs no RNG stream positions: the stream re-derives from the
period index alone.

Events are applied to the daemon's
:class:`repro.service.state.NetworkTable`, the durable membership table
the next period's network materializes from
(:meth:`~repro.service.state.NetworkTable.apply_churn`). The period's
campaign then measures the new membership: joins as new relays at the
§4.3 new-relay seed estimate, drifted relays against their old prior,
and leavers not at all.

Draw order within a period is fixed (leaves, then joins, then capacity
changes) and all draws come from one forked stream, so adding relays in
one period never perturbs another period's events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import (
    ConfigurationError,
    _check_record,
    _is_finite_number,
    _is_int,
)
from repro.rng import fork, seed_from
from repro.tornet.network import (
    _LOGNORMAL_MEDIAN,
    _LOGNORMAL_SIGMA,
    _MIN_CAPACITY,
    JULY_2019_MAX_CAPACITY,
    sample_capacity,
)

__all__ = [
    "ChurnConfig",
    "ChurnEvent",
    "churn_events_for_period",
]


@dataclass(frozen=True)
class ChurnEvent:
    """One relay joining, leaving, or changing capacity between periods."""

    #: ``join`` | ``leave`` | ``capacity``.
    kind: str
    fingerprint: str
    #: Joins: the new relay's ground-truth capacity (bit/s). Capacity
    #: changes: the multiplicative drift factor applied to the relay's
    #: current capacity. Leaves: None.
    capacity: float | None = None
    #: New relays: the relay's RNG seed (drives jitter streams).
    seed: int | None = None

    def to_dict(self) -> dict:
        record: dict = {"kind": self.kind, "fingerprint": self.fingerprint}
        if self.capacity is not None:
            record["capacity"] = self.capacity
        if self.seed is not None:
            record["seed"] = self.seed
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ChurnEvent":
        return cls(
            kind=record["kind"],
            fingerprint=record["fingerprint"],
            capacity=record.get("capacity"),
            seed=record.get("seed"),
        )


@dataclass(frozen=True)
class ChurnConfig:
    """Rates describing how fast the measured network moves.

    Defaults give a visibly moving network at test scale; a
    July-2019-calibrated feed would use ``join_rate~=72`` (3/hour) on
    24-hour periods with a small ``leave_fraction``.
    """

    seed: int = 0
    #: Expected relays joining per period (Poisson).
    join_rate: float = 2.0
    #: Fraction of current relays leaving per period.
    leave_fraction: float = 0.05
    #: Fraction of surviving relays whose capacity drifts per period.
    capacity_change_fraction: float = 0.0
    #: Std-dev of the multiplicative capacity-drift factor.
    capacity_change_std: float = 0.2
    #: Fingerprint prefix for joining relays.
    join_prefix: str = "joined"
    #: Capacity distribution for joining relays (network defaults).
    join_median: float = _LOGNORMAL_MEDIAN
    join_sigma: float = _LOGNORMAL_SIGMA
    join_max_capacity: float = JULY_2019_MAX_CAPACITY

    def __post_init__(self) -> None:
        if not _is_int(self.seed):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}"
            )
        # A NaN rate draws no joins and an infinite one floods the
        # network; a NaN or non-positive capacity parameter pins every
        # joining relay at a clip bound (or fails inside the lognormal).
        for name in (
            "join_rate", "leave_fraction", "capacity_change_fraction",
            "capacity_change_std", "join_median", "join_sigma",
            "join_max_capacity",
        ):
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        for name in ("join_rate", "join_sigma", "capacity_change_std"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
        for name in ("join_median", "join_max_capacity"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value!r}")
        if not 0 <= self.leave_fraction < 1:
            raise ConfigurationError("leave_fraction must be in [0, 1)")
        if not 0 <= self.capacity_change_fraction <= 1:
            raise ConfigurationError(
                "capacity_change_fraction must be in [0, 1]"
            )
        if not isinstance(self.join_prefix, str) or not self.join_prefix:
            raise ConfigurationError(
                f"join_prefix must be a non-empty str, got {self.join_prefix!r}"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "join_rate": self.join_rate,
            "leave_fraction": self.leave_fraction,
            "capacity_change_fraction": self.capacity_change_fraction,
            "capacity_change_std": self.capacity_change_std,
            "join_prefix": self.join_prefix,
            "join_median": self.join_median,
            "join_sigma": self.join_sigma,
            "join_max_capacity": self.join_max_capacity,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ChurnConfig":
        _check_record(record, [f.name for f in fields(cls)], "churn config")
        return cls(**record)


def _poisson(rng, rate: float) -> int:
    """Knuth's method (the ``new_relay_arrivals`` idiom; rates are small)."""
    if rate <= 0:
        return 0
    limit = math.exp(-rate)
    k, product = 0, rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def churn_events_for_period(
    config: ChurnConfig, period_index: int, membership: list[str]
) -> list[ChurnEvent]:
    """The deterministic churn-event list preceding ``period_index``.

    ``membership`` is the network's current fingerprint set (any order;
    it is sorted internally so dict ordering can never leak into the
    event stream). Events come back leaves-first, then joins, then
    capacity changes -- the order they must be applied in.
    """
    rng = fork(config.seed, f"churn-period-{period_index}")
    current = sorted(membership)
    events: list[ChurnEvent] = []

    n_leaving = min(
        len(current), round(config.leave_fraction * len(current))
    )
    leaving = rng.sample(current, n_leaving) if n_leaving else []
    events.extend(ChurnEvent(kind="leave", fingerprint=fp) for fp in leaving)

    for i in range(_poisson(rng, config.join_rate)):
        fingerprint = f"{config.join_prefix}{period_index:04d}x{i:03d}"
        events.append(
            ChurnEvent(
                kind="join",
                fingerprint=fingerprint,
                capacity=sample_capacity(
                    rng,
                    median=config.join_median,
                    sigma=config.join_sigma,
                    max_capacity=config.join_max_capacity,
                ),
                seed=seed_from(config.seed, f"join-{fingerprint}"),
            )
        )

    if config.capacity_change_fraction > 0:
        survivors = [fp for fp in current if fp not in set(leaving)]
        n_changing = min(
            len(survivors),
            round(config.capacity_change_fraction * len(survivors)),
        )
        for fp in rng.sample(survivors, n_changing) if n_changing else []:
            factor = max(0.1, rng.gauss(1.0, config.capacity_change_std))
            events.append(
                ChurnEvent(kind="capacity", fingerprint=fp, capacity=factor)
            )
    return events
