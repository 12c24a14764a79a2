"""Oracle tests: the vectorized flow kernel is bit-identical to the
historical per-second walk.

Mirrors ``tests/api/test_campaign_oracle.py``: the historical walk
(:func:`tests.oracles.shadow_walk.reference_walk`) is the oracle, and
``NetworkSimulator.run`` (the flow kernel) must reproduce every
``SimulationMetrics`` field with *exact* equality -- TTLB/TTFB lists,
error rates, transfer counts, the full throughput series, and the
per-relay utilisation/peak/p95 dicts -- across seeds, loads, and both
weight systems (ground-truth/FlashFlow-style and TorFlow-style).
"""

import pytest

from repro.shadow.config import ShadowConfig, ShadowNetwork, build_network
from repro.shadow.experiment import torflow_weights_for
from repro.shadow.simulator import NetworkSimulator
from tests.oracles.shadow_walk import reference_walk


def _signature(metrics) -> dict:
    """Every metric a run records, as exactly-comparable values."""
    return {
        "throughput_series": metrics.throughput_series,
        "ttfb": metrics.ttfb(),
        "ttlb_50k": metrics.ttlb(50 * 1024),
        "ttlb_1m": metrics.ttlb(1024 * 1024),
        "ttlb_5m": metrics.ttlb(5 * 1024 * 1024),
        "error_rates": metrics.error_rates(),
        "transfers_completed": metrics.transfers_completed(),
        "transfers_failed": metrics.transfers_failed(),
        "median_throughput": metrics.median_throughput(),
        "relay_utilization": metrics.relay_utilization,
        "relay_peak_throughput": metrics.relay_peak_throughput,
        "relay_p95_throughput": metrics.relay_p95_throughput,
    }


def _network(seed: int, load: float, lifetime: int = 25) -> ShadowNetwork:
    # A short circuit lifetime exercises several churn events (flow-table
    # rebuilds) inside the horizon, including a final span clipped by it.
    return build_network(
        ShadowConfig(
            n_relays=24,
            n_markov_clients=10,
            n_benchmark_clients=4,
            sim_seconds=50,
            warmup_seconds=12,
            seed=seed,
            load_multiplier=load,
            circuit_lifetime_seconds=lifetime,
        )
    )


def _weights(network: ShadowNetwork, system: str, seed: int) -> dict:
    if system == "truth":
        # Ground-truth capacities: the idealized FlashFlow weight set.
        return network.relays.capacities()
    # The TorFlow pipeline's actual output: skewed weights that overload
    # some relays (exercising the EWMA-starvation path; the dedicated
    # high-load test below forces the timeout path too).
    return torflow_weights_for(network, seed=seed, warmup_sim_seconds=30)


@pytest.mark.parametrize("seed", (1, 5))
@pytest.mark.parametrize("load", (1.0, 1.3))
@pytest.mark.parametrize("system", ("truth", "torflow"))
def test_vector_kernel_bit_identical(seed, load, system):
    network = _network(seed, load)
    weights = _weights(network, system, seed)
    reference = _signature(
        reference_walk(NetworkSimulator(network, seed=seed + 7), weights)
    )
    kernel = _signature(NetworkSimulator(network, seed=seed + 7).run(weights))
    assert reference["transfers_completed"] > 0
    for key, value in reference.items():
        assert kernel[key] == value, key


def test_vector_kernel_bit_identical_on_timeout_path():
    """An overloaded long-horizon run *must* produce timed-out
    transfers, so the kernel's timeout/error-rate bookkeeping is
    actually exercised -- the moderate-load grid above completes every
    transfer (its horizon is too short for the 15/60/120 s timeouts to
    even be reachable)."""
    network = build_network(
        ShadowConfig(
            n_relays=50,
            n_markov_clients=40,
            n_benchmark_clients=8,
            sim_seconds=150,
            warmup_seconds=30,
            seed=3,
            load_multiplier=1.4,
            circuit_lifetime_seconds=60,
        )
    )
    weights = torflow_weights_for(network, seed=3, warmup_sim_seconds=30)
    reference = _signature(
        reference_walk(NetworkSimulator(network, seed=4), weights)
    )
    kernel = _signature(NetworkSimulator(network, seed=4).run(weights))
    assert reference["transfers_failed"] > 0
    assert kernel == reference


def test_vector_kernel_identical_across_churn_boundaries():
    """Lifetimes that divide/don't divide the horizon all stay exact."""
    for lifetime in (7, 31, 62, 500):
        network = _network(3, 1.0, lifetime=lifetime)
        weights = network.relays.capacities()
        reference = reference_walk(NetworkSimulator(network, seed=9), weights)
        kernel = NetworkSimulator(network, seed=9).run(weights)
        assert _signature(reference) == _signature(kernel), lifetime
