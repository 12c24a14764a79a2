"""Whole-network container and the synthetic July-2019 Tor network.

Paper §7 drives its efficiency simulation from archived July 2019
consensuses: a median of 6,419 relays with ~608 Gbit/s total capacity, a
maximum relay capacity of 998 Mbit/s, a 75th-percentile advertised
bandwidth of 51 Mbit/s, and a median of 3 (max 98) new relays per hourly
consensus. :func:`synthesize_network` generates networks matching that
shape from a clipped lognormal capacity distribution; the calibration test
suite pins the aggregate statistics.

A generated network is a :class:`TorNetwork` of plain
:meth:`Relay.with_capacity` relays, one object per relay. The draw and
the build are separate steps: :func:`draw_relays` returns every relay's
capacity and flags as two lists, and :func:`synthesized_relay` builds
one relay from them, so a caller that keeps a sample of the consensus
(:func:`repro.shadow.config.build_network`, via
:func:`stratified_sample`) builds only the relays it keeps. Networks of
the paper's size (6,419 relays) build in tens of milliseconds; 10^5
relays take about 1.6 s and 230 MiB on a 2-core host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.rng import fork
from repro.tornet.relay import Relay
from repro.units import mbit

#: July 2019 calibration targets (paper §7).
JULY_2019_RELAY_COUNT = 6419
JULY_2019_TOTAL_CAPACITY = 608e9
JULY_2019_MAX_CAPACITY = mbit(998)
JULY_2019_NEW_RELAY_SEED = mbit(51)

#: Clipped-lognormal parameters reproducing the July 2019 aggregates.
_LOGNORMAL_MEDIAN = mbit(30)
_LOGNORMAL_SIGMA = 1.6
_MIN_CAPACITY = mbit(0.1)


@dataclass
class TorNetwork:
    """A set of relays with ground-truth capacities."""

    relays: dict[str, Relay] = field(default_factory=dict)

    def add(self, relay: Relay) -> None:
        self.relays[relay.fingerprint] = relay

    def __len__(self) -> int:
        return len(self.relays)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.relays

    def __getitem__(self, fingerprint: str) -> Relay:
        return self.relays[fingerprint]

    def capacities(self) -> dict[str, float]:
        """Ground-truth capacity (bit/s) per relay."""
        return {fp: r.true_capacity for fp, r in self.relays.items()}

    def total_capacity(self) -> float:
        if not self.relays:
            raise ConfigurationError(
                "total_capacity is undefined on an empty network"
            )
        return sum(r.true_capacity for r in self.relays.values())

    def max_capacity(self) -> float:
        if not self.relays:
            raise ConfigurationError(
                "max_capacity is undefined on an empty network"
            )
        return max(r.true_capacity for r in self.relays.values())

    def percentile_capacity(self, pct: float) -> float:
        """The ``pct``-th percentile of relay capacities (0-100).

        ``pct=0`` is the minimum capacity, ``pct=100`` the maximum;
        intermediate ranks interpolate linearly between order statistics.
        """
        if not self.relays:
            raise ConfigurationError(
                "percentile_capacity is undefined on an empty network"
            )
        values = sorted(r.true_capacity for r in self.relays.values())
        if len(values) == 1:
            return values[0]
        rank = (pct / 100.0) * (len(values) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(values) - 1)
        frac = rank - low
        return values[low] * (1 - frac) + values[high] * frac

    def subset(self, fingerprints: list[str]) -> "TorNetwork":
        return TorNetwork({fp: self.relays[fp] for fp in fingerprints})


def sample_capacity(rng, median: float = _LOGNORMAL_MEDIAN,
                    sigma: float = _LOGNORMAL_SIGMA,
                    max_capacity: float = JULY_2019_MAX_CAPACITY) -> float:
    """Draw one relay capacity from the clipped lognormal."""
    value = math.exp(rng.gauss(math.log(median), sigma))
    return max(_MIN_CAPACITY, min(max_capacity, value))


#: The four flag sets synthesis assigns, keyed by (Guard, Exit). Relays
#: share them rather than each holding an equal frozenset.
_FLAG_SETS = {
    (False, False): frozenset({"Running", "Valid", "Fast"}),
    (True, False): frozenset({"Running", "Valid", "Fast", "Guard"}),
    (False, True): frozenset({"Running", "Valid", "Fast", "Exit"}),
    (True, True): frozenset({"Running", "Valid", "Fast", "Guard", "Exit"}),
}


def _assign_flags(capacity: float, rng) -> frozenset[str]:
    """Assign Guard/Exit flags, skewed toward higher-capacity relays.

    Roughly matches the live network: ~15% of relays are exits and ~35%
    guards, with big relays far more likely to hold the flags.
    """
    size_factor = min(1.0, capacity / mbit(100))
    guard = rng.random() < 0.05 + 0.35 * size_factor
    exit_ = rng.random() < 0.05 + 0.25 * size_factor
    return _FLAG_SETS[guard, exit_]


def draw_relays(
    n_relays: int = JULY_2019_RELAY_COUNT,
    seed: int = 0,
    median: float = _LOGNORMAL_MEDIAN,
    sigma: float = _LOGNORMAL_SIGMA,
    max_capacity: float = JULY_2019_MAX_CAPACITY,
    prefix: str = "relay",
) -> tuple[list[float], list[frozenset[str]]]:
    """The capacity and flags of each relay :func:`synthesize_network`
    builds, in index order, without building the relays."""
    rng = fork(seed, f"network-{prefix}-{n_relays}")
    capacities, flags = [], []
    for _ in range(n_relays):
        # A clipped draw returns ``max_capacity`` itself, which may be an
        # int; every synthesized capacity is a float.
        capacity = float(sample_capacity(rng, median, sigma, max_capacity))
        capacities.append(capacity)
        flags.append(_assign_flags(capacity, rng))
    return capacities, flags


def synthesized_relay(
    prefix: str, index: int, capacity: float, flags: frozenset[str],
    seed: int,
) -> Relay:
    """The ``index``-th relay of a network synthesized with ``seed``."""
    return Relay.with_capacity(
        fingerprint=f"{prefix}{index:05d}",
        capacity_bits=capacity,
        nickname=f"{prefix}{index}",
        flags=flags,
        seed=seed + index,
    )


def synthesize_network(
    n_relays: int = JULY_2019_RELAY_COUNT,
    seed: int = 0,
    median: float = _LOGNORMAL_MEDIAN,
    sigma: float = _LOGNORMAL_SIGMA,
    max_capacity: float = JULY_2019_MAX_CAPACITY,
    prefix: str = "relay",
) -> TorNetwork:
    """Generate a synthetic Tor network with July-2019-like capacities."""
    capacities, flags = draw_relays(
        n_relays, seed, median, sigma, max_capacity, prefix
    )
    network = TorNetwork()
    for index, (capacity, relay_flags) in enumerate(zip(capacities, flags)):
        network.add(
            synthesized_relay(prefix, index, capacity, relay_flags, seed)
        )
    return network


def stratified_sample(
    capacities: list[float], fraction: float, seed: int
) -> list[int]:
    """Indices of a capacity-stratified sample of ``fraction`` of a network.

    The capacities are split, in ascending order, into equal windows,
    one per sampled relay, and one relay is drawn from each, so the
    sample keeps the full network's capacity distribution shape
    (the Shadow modelling best practices paper §7 cites [20]).
    """
    rng = fork(seed, "scaled-network")
    order = sorted(range(len(capacities)), key=capacities.__getitem__)
    take = max(1, round(len(order) * fraction))
    stride = len(order) / take
    picked = []
    for i in range(take):
        window_start = int(i * stride)
        window_end = max(window_start + 1, int((i + 1) * stride))
        picked.append(order[rng.randrange(window_start, window_end)])
    return picked


def sample_scaled_network(
    full: TorNetwork, fraction: float = 0.05, seed: int = 0
) -> TorNetwork:
    """Sample a scaled-down network (the paper's 5% Shadow network, §7).

    The sample is :func:`stratified_sample` over the relays' true
    capacities; the picked relays are ``full``'s own objects.
    """
    relays = list(full.relays.values())
    picked = stratified_sample(
        [relay.true_capacity for relay in relays], fraction, seed
    )
    return TorNetwork({relays[i].fingerprint: relays[i] for i in picked})


def new_relay_arrivals(
    n_consensuses: int, seed: int = 0, mean_rate: float = 3.0,
    burst_probability: float = 0.01, burst_max: int = 98,
) -> list[int]:
    """Replay-style counts of new relays per hourly consensus (paper §7).

    Poisson arrivals (median 3) with rare large bursts (the paper saw a
    max of 98 -- e.g. after outages or Sybil events).
    """
    rng = fork(seed, "new-relay-arrivals")
    counts = []
    for _ in range(n_consensuses):
        if rng.random() < burst_probability:
            counts.append(rng.randint(20, burst_max))
        else:
            # Poisson sampling via Knuth's method (rates are tiny).
            limit = math.exp(-mean_rate)
            k, product = 0, rng.random()
            while product > limit:
                k += 1
                product *= rng.random()
            counts.append(k)
    return counts
