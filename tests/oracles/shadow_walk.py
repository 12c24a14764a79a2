"""The shadow simulator's historical per-second walk, kept as an oracle.

Before the flow kernel (:mod:`repro.shadow.flows`), every simulated
second rebuilt the flow list in Python: each background circuit's
demand and congested-RTT window cap, each benchmark transfer's cap,
one waterfill (the round-by-round
:func:`tests.oracles.waterfill.reference_waterfill`), then per-transfer
advancement with the overload scheduling penalty. ``reference_walk`` is
that loop over a simulator's prepared inputs; the flow oracle and
golden suites compare
:meth:`NetworkSimulator.run <repro.shadow.simulator.NetworkSimulator.run>`
against it.
"""

import numpy as np

from repro.shadow.benchclient import BenchmarkClient
from repro.shadow.flows import (
    OVERLOAD_FULL,
    OVERLOAD_ONSET,
    finalize_relay_stats,
)
from repro.shadow.simulator import NetworkSimulator, SimulationMetrics
from repro.tornet.circuit import circuit_rate_cap
from tests.oracles.waterfill import reference_waterfill


def reference_walk(
    simulator: NetworkSimulator, weights: dict[str, float]
) -> SimulationMetrics:
    """Simulate ``sim_seconds`` + warmup under ``weights``, second by second."""
    config = simulator.config
    index = simulator._index
    capacity = simulator._capacity
    prepared = simulator._prepare(weights)
    background = prepared.background
    benchmarks = prepared.benchmarks
    metrics = prepared.metrics
    relay_noise = prepared.relay_noise

    n_relays = len(simulator._fingerprints)
    util_acc = np.zeros(n_relays)
    peak = np.zeros(n_relays)
    load_history: list[np.ndarray] = []
    # Previous second's per-relay utilisation: congested relays queue
    # cells, inflating effective circuit RTT and shrinking the
    # window-limited throughput.
    prev_util = np.zeros(n_relays)
    measured_seconds = 0

    def congested_rtt(base_rtt: float, relay_ids: tuple[int, ...]) -> float:
        queue_factor = float(prev_util[list(relay_ids)].mean())
        return base_rtt * (1.0 + 2.5 * (queue_factor * queue_factor))

    for now in range(prepared.horizon):
        # --- Collect this second's flows -------------------------------
        paths: list[tuple[int, int, int]] = []
        caps: list[float] = []
        owners: list[BenchmarkClient | None] = []

        for generator in background:
            for circuit, demand in generator.demands(now):
                ids = tuple(index[fp] for fp in circuit.path)
                window = circuit_rate_cap(
                    congested_rtt(circuit.rtt, ids), n_streams=2
                )
                paths.append(ids)
                caps.append(min(demand, window))
                owners.append(None)

        for client in benchmarks:
            client.maybe_start(now)
            transfer = client.active
            if transfer is None:
                continue
            ids = tuple(index[fp] for fp in transfer.path)
            # Benchmark downloads are single-stream (torperf-style), so
            # the 500-cell stream window binds.
            transfer.current_rtt = congested_rtt(transfer.rtt, ids)
            window = circuit_rate_cap(transfer.current_rtt, n_streams=1)
            paths.append(ids)
            caps.append(min(window, config.client_access_bits))
            owners.append(client)

        path_idx = np.array(paths, dtype=np.int64).reshape(-1, 3)
        cap_arr = np.array(caps)
        rates = reference_waterfill(
            path_idx, cap_arr, capacity * relay_noise[now]
        )

        # Oversubscription per relay: offered demand vs capacity.
        offered_load = np.bincount(
            path_idx.ravel(),
            weights=np.repeat(cap_arr, 3),
            minlength=n_relays,
        )
        oversub = offered_load / np.maximum(capacity, 1.0)

        # --- Advance benchmark transfers --------------------------------
        for flow_i, owner in enumerate(owners):
            if owner is None:
                continue
            rate = float(rates[flow_i])
            transfer = owner.active
            if transfer is not None:
                # Per-circuit EWMA scheduling is unfair under overload:
                # circuits through a heavily oversubscribed relay do not
                # get their max-min share.
                worst = float(
                    oversub[[index[fp] for fp in transfer.path]].max()
                )
                if worst > OVERLOAD_ONSET:
                    severity = min(
                        1.0,
                        (worst - OVERLOAD_ONSET)
                        / (OVERLOAD_FULL - OVERLOAD_ONSET),
                    )
                    rate *= transfer.luck ** severity
            owner.advance(now, rate)

        # --- Record -----------------------------------------------------
        relay_load = np.bincount(
            path_idx.ravel(),
            weights=np.repeat(rates, 3),
            minlength=n_relays,
        )
        prev_util = np.minimum(1.0, relay_load / np.maximum(capacity, 1.0))
        if now >= config.warmup_seconds:
            metrics.throughput_series.append(float(relay_load.sum()))
            util_acc += prev_util
            peak = np.maximum(peak, relay_load)
            load_history.append(relay_load)
            measured_seconds += 1

    finalize_relay_stats(
        metrics,
        simulator._fingerprints,
        util_acc,
        peak,
        load_history,
        measured_seconds,
    )
    return metrics
