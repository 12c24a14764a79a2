"""Flow-level network simulator (the Shadow stand-in, paper §7).

Each simulated second:

1. background (Markov) clients refresh circuits and offer demand;
2. benchmark clients start transfers on fresh weighted circuits;
3. every circuit becomes a flow over its three relays, and a vectorised
   exact max-min waterfilling allocates rates subject to per-relay
   forwarding capacity and per-flow caps (demand, circuit windows,
   client access links);
4. benchmark transfers advance, recording TTFB/TTLB/timeouts;
5. per-relay throughput and utilisation are accumulated.

Each horizon runs on the flow kernel (:mod:`repro.shadow.flows`): the
flow table is rebuilt only at circuit churn, and congested RTTs and
transfer bookkeeping are batched array ops. The historical per-second
Python walk, which the kernel reproduces bit for bit under fixed seeds,
is kept as a test oracle (``tests/oracles/shadow_walk.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rng import fork_numpy
from repro.shadow.benchclient import BenchmarkClient
from repro.shadow.config import ShadowConfig, ShadowNetwork
from repro.shadow.flows import (
    OVERLOAD_FULL,
    OVERLOAD_ONSET,
    run_flow_kernel,
    waterfill,
)
from repro.shadow.trafficgen import MarkovLoadGenerator
from repro.tornet.consensus import Consensus, RouterStatus
from repro.tornet.pathsel import PathSelector

__all__ = [
    "NetworkSimulator",
    "PreparedSimulation",
    "SimulationMetrics",
    "waterfill",
    "OVERLOAD_ONSET",
    "OVERLOAD_FULL",
]


@dataclass
class SimulationMetrics:
    """Everything a performance run records (after warmup)."""

    #: Summed per-relay forwarded traffic each second (bit/s) -- every
    #: flow byte crosses three relays (Figure 9c's metric).
    throughput_series: list[float] = field(default_factory=list)
    #: Mean utilisation per relay over the run.
    relay_utilization: dict[str, float] = field(default_factory=dict)
    #: Max per-second forwarded traffic per relay (the observed-bandwidth
    #: signal TorFlow's self-reports are built from), bit/s.
    relay_peak_throughput: dict[str, float] = field(default_factory=dict)
    #: 95th-percentile per-second forwarded traffic per relay, bit/s --
    #: the *sustained* peak a short warmup run can stand in for the live
    #: network's 5-day observed-bandwidth window with.
    relay_p95_throughput: dict[str, float] = field(default_factory=dict)
    #: Benchmark clients with their transfer records.
    clients: list[BenchmarkClient] = field(default_factory=list)

    def ttlb(self, size: int) -> list[float]:
        values: list[float] = []
        for client in self.clients:
            values.extend(client.ttlb_values(size))
        return values

    def ttfb(self) -> list[float]:
        values: list[float] = []
        for client in self.clients:
            values.extend(client.ttfb_values())
        return values

    def error_rates(self) -> list[float]:
        return [c.error_rate() for c in self.clients]

    def transfers_completed(self) -> int:
        return sum(
            sum(1 for r in c.records if not r.timed_out)
            for c in self.clients
        )

    def transfers_failed(self) -> int:
        return sum(
            sum(1 for r in c.records if r.timed_out) for c in self.clients
        )

    def median_throughput(self) -> float:
        if not self.throughput_series:
            return 0.0
        return float(np.median(self.throughput_series))


@dataclass
class PreparedSimulation:
    """One run's resolved inputs: clients, metrics and pre-drawn noise."""

    background: list[MarkovLoadGenerator]
    benchmarks: list[BenchmarkClient]
    metrics: SimulationMetrics
    #: [horizon, R] pre-drawn per-second relay capacity jitter.
    relay_noise: np.ndarray
    horizon: int


class NetworkSimulator:
    """Runs one performance simulation under a given weight assignment."""

    def __init__(self, network: ShadowNetwork, seed: int = 0):
        self.network = network
        self.config = network.config
        self.seed = seed
        self._fingerprints = sorted(network.relays.relays)
        self._index = {fp: i for i, fp in enumerate(self._fingerprints)}
        self._capacity = np.array(
            [network.relays[fp].true_capacity for fp in self._fingerprints]
        )

    def _consensus(self, weights: dict[str, float]) -> Consensus:
        consensus = Consensus(valid_after=0)
        for fp in self._fingerprints:
            relay = self.network.relays[fp]
            consensus.add(
                RouterStatus(
                    fingerprint=fp,
                    weight=max(weights.get(fp, 0.0), 0.0),
                    flags=relay.flags,
                )
            )
        return consensus

    def run(self, weights: dict[str, float]) -> SimulationMetrics:
        """Simulate ``sim_seconds`` + warmup under ``weights``."""
        return run_flow_kernel(self, self._prepare(weights))

    def _prepare(self, weights: dict[str, float]) -> PreparedSimulation:
        """Resolve one run's clients and noise (RNG order is canonical).

        The flow kernel and the reference walk both start from this
        exact draw sequence: path selector, the numpy noise fork,
        background generators, then benchmark clients.
        """
        config = self.config
        selector = PathSelector(self._consensus(weights), seed=self.seed)
        rtt_sampler = self.network.sample_circuit_rtt
        rng_np = fork_numpy(self.seed, "shadow-sim")

        total_capacity = float(self._capacity.sum())
        offered = (
            total_capacity
            * config.utilization_target
            / 3.0
            * config.load_multiplier
        )
        per_client = offered / max(1, config.n_markov_clients)
        # Enough circuits per client that typical per-circuit demand stays
        # well under the circuit flow-control window (real Tor clients
        # multiplex across many circuits; small test configs would
        # otherwise window-cap their offered load).
        n_circuits = max(3, int(per_client / 3e6) + 1)
        background = [
            MarkovLoadGenerator(
                name=f"markov{i}",
                base_demand=per_client,
                selector=selector,
                rtt_sampler=rtt_sampler,
                circuit_lifetime=config.circuit_lifetime_seconds,
                n_circuits=n_circuits,
                seed=self.seed * 100003 + i,
            )
            for i in range(config.n_markov_clients)
        ]
        benchmarks = [
            BenchmarkClient(
                name=f"bench{i}",
                selector=selector,
                rtt_sampler=rtt_sampler,
                sizes=config.benchmark_sizes,
                timeouts=config.benchmark_timeouts,
                pause_seconds=config.benchmark_pause_seconds,
                seed=self.seed * 200003 + i,
            )
            for i in range(config.n_benchmark_clients)
        ]

        horizon = config.warmup_seconds + config.sim_seconds
        # One batched draw for the whole horizon (engine-kernel style
        # noise batching): row ``now`` holds exactly the values a
        # per-second ``rng_np.normal(1.0, 0.02, n_relays)`` call would
        # have drawn, so results are bit-identical.
        relay_noise = np.clip(
            rng_np.normal(1.0, 0.02, (horizon, len(self._fingerprints))),
            0.85,
            1.15,
        )
        return PreparedSimulation(
            background=background,
            benchmarks=benchmarks,
            metrics=SimulationMetrics(clients=benchmarks),
            relay_noise=relay_noise,
            horizon=horizon,
        )
