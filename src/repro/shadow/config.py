"""Scaled private-network configuration (paper §7).

"We configure a private Tor test network in Shadow that is 5% of the size
of the public network and contains: 3 DirAuths; 328 relays; 397 TGen
clients that use Tor Markov models to generate the traffic flows of 40k
Tor users; and 40 TGen clients that mirror Tor's performance benchmarking
process. [...] Each relay is configured with a capacity equal to the
maximum observed bandwidth of the corresponding relay in the public Tor
network."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, _is_finite_number, _is_int
from repro.tornet.network import (
    JULY_2019_RELAY_COUNT,
    TorNetwork,
    draw_relays,
    stratified_sample,
    synthesized_relay,
)


@dataclass(frozen=True)
class ShadowConfig:
    """Configuration of one scaled-network experiment."""

    n_relays: int = 328
    n_dirauths: int = 3
    n_markov_clients: int = 397
    n_benchmark_clients: int = 40
    seed: int = 0
    #: Simulated seconds per performance run (after warmup).
    sim_seconds: int = 1200
    warmup_seconds: int = 240
    #: Client-traffic load relative to baseline (1.0 / 1.15 / 1.30).
    load_multiplier: float = 1.0
    #: Baseline end-to-end offered load as a fraction of total relay
    #: capacity / 3 (each byte crosses three relays). Chosen so summed
    #: relay throughput sits near the paper's Figure 9c range relative to
    #: network capacity.
    utilization_target: float = 0.38
    #: Benchmark transfer sizes (bytes) and timeouts (seconds).
    benchmark_sizes: tuple[int, ...] = (50 * 1024, 1024 * 1024, 5 * 1024 * 1024)
    benchmark_timeouts: tuple[int, ...] = (15, 60, 120)
    #: Pause between a benchmark client's transfers.
    benchmark_pause_seconds: int = 15
    #: Client access-link rate, bit/s.
    client_access_bits: float = 100e6
    #: Circuit lifetime for the background (Markov) clients.
    circuit_lifetime_seconds: int = 300

    def __post_init__(self) -> None:
        # Each bad value otherwise fails late or not at all: a NaN load
        # raises from int() inside the run, a negative target runs with
        # no background traffic, a NaN access rate times out every
        # transfer, and a negative horizon runs empty.
        for name, least in (
            ("n_relays", 1), ("n_dirauths", 0), ("n_markov_clients", 0),
            ("n_benchmark_clients", 0), ("sim_seconds", 1),
            ("warmup_seconds", 0), ("benchmark_pause_seconds", 0),
            ("circuit_lifetime_seconds", 1),
        ):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
            if value < least:
                raise ConfigurationError(
                    f"{name} must be >= {least}, got {value!r}"
                )
        # The network is a sample of one synthetic consensus; a larger
        # one has nothing to sample from.
        if self.n_relays > JULY_2019_RELAY_COUNT:
            raise ConfigurationError(
                f"n_relays must be <= {JULY_2019_RELAY_COUNT} (the "
                f"sampled consensus), got {self.n_relays!r}"
            )
        if not _is_int(self.seed):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}"
            )
        for name in (
            "load_multiplier", "utilization_target", "client_access_bits",
        ):
            value = getattr(self, name)
            if not _is_finite_number(value) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a finite number > 0, got {value!r}"
                )
        for name in ("benchmark_sizes", "benchmark_timeouts"):
            value = getattr(self, name)
            if (
                not isinstance(value, tuple)
                or not value
                or not all(_is_int(v) and v > 0 for v in value)
            ):
                raise ConfigurationError(
                    f"{name} must be a non-empty tuple of integers > 0, "
                    f"got {value!r}"
                )
        if len(self.benchmark_sizes) != len(self.benchmark_timeouts):
            raise ConfigurationError(
                "benchmark_sizes and benchmark_timeouts must align"
            )


@dataclass
class ShadowNetwork:
    """The scaled network: relays plus per-entity latency samples."""

    config: ShadowConfig
    relays: TorNetwork
    #: Circuit RTTs are sampled per circuit from this (lo, hi) range, s.
    hop_rtt_range: tuple[float, float] = (0.04, 0.20)

    def total_capacity(self) -> float:
        return self.relays.total_capacity()

    def sample_circuit_rtt(self, rng) -> float:
        """End-to-end RTT of a fresh circuit (client..server, 4 hops)."""
        lo, hi = self.hop_rtt_range
        return sum(rng.uniform(lo, hi) for _ in range(4))


def build_network(config: ShadowConfig | None = None) -> ShadowNetwork:
    """Sample the 5%-scale network from a synthetic full consensus.

    The consensus is drawn as capacity and flag lists, and only the
    ``n_relays`` relays :func:`stratified_sample` picks from it are
    built, largest capacity first. Every accepted size is hit exactly:
    ``round(6419 * n / 6419) == n`` for each ``n`` up to 6,419.
    """
    config = config or ShadowConfig()
    capacities, flags = draw_relays(seed=config.seed, prefix="pub")
    picked = stratified_sample(
        capacities, config.n_relays / len(capacities), config.seed
    )
    picked.sort(key=capacities.__getitem__, reverse=True)
    relays = TorNetwork()
    for index in picked:
        relays.add(synthesized_relay(
            "pub", index, capacities[index], flags[index], config.seed
        ))
    return ShadowNetwork(config=config, relays=relays)
