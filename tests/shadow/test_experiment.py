"""Tests for the §7 Shadow experiment pipeline (scaled down for speed).

Assertions target the paper's qualitative results: FlashFlow's weights
are far closer to ground truth than TorFlow's, and performance under
FlashFlow weights dominates TorFlow's on every Figure 9 metric.
"""

import statistics

import pytest

from repro.shadow.config import ShadowConfig, build_network
from repro.shadow.experiment import (
    compare_systems,
    flashflow_weights_for,
    network_capacity_error,
    network_weight_error,
    relay_capacity_errors,
    relay_weight_errors,
    torflow_weights_for,
)
from tests.oracles.stateful_engine import use_stateful_reference


@pytest.fixture(scope="module")
def result():
    config = ShadowConfig(
        n_relays=80, n_markov_clients=80, n_benchmark_clients=12,
        sim_seconds=240, warmup_seconds=60, seed=3,
    )
    return compare_systems(config, loads=(1.0, 1.3), seed=3)


# ---------------------------------------------------------------------------
# Error-metric helpers
# ---------------------------------------------------------------------------

def test_relay_capacity_errors_formula():
    errors = relay_capacity_errors({"a": 80.0}, {"a": 100.0})
    assert errors["a"] == pytest.approx(0.2)


def test_network_capacity_error_formula():
    assert network_capacity_error(
        {"a": 50.0, "b": 100.0}, {"a": 100.0, "b": 100.0}
    ) == pytest.approx(0.25)


def test_relay_weight_errors_perfect():
    errors = relay_weight_errors({"a": 2.0, "b": 6.0}, {"a": 25.0, "b": 75.0})
    assert errors["a"] == pytest.approx(1.0)
    assert errors["b"] == pytest.approx(1.0)


def test_network_weight_error_tvd():
    assert network_weight_error(
        {"a": 9.0, "b": 1.0}, {"a": 50.0, "b": 50.0}
    ) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# Figure 8: measurement error
# ---------------------------------------------------------------------------

def test_fig8_flashflow_beats_torflow_weight_error(result):
    """Paper: NWE 4% (FF) vs 29% (TF)."""
    ff = result.network_weight_error("flashflow")
    tf = result.network_weight_error("torflow")
    assert ff < 0.10
    assert tf > 0.15
    assert ff < tf / 2


def test_fig8_flashflow_capacity_error_moderate(result):
    """Paper: FF relay capacity error median ~16%, NCE ~14%."""
    errors = list(result.flashflow_capacity_errors().values())
    median = statistics.median(errors)
    assert 0.05 < median < 0.30
    assert 0.05 < result.flashflow_network_capacity_error() < 0.30


def test_fig8_torflow_mostly_underweights(result):
    """Paper: >80% of relays underweighted by TorFlow."""
    tf_errors = result.weight_errors("torflow")
    frac_under = statistics.fmean(1 if v < 1 else 0 for v in tf_errors.values())
    ff_errors = result.weight_errors("flashflow")
    ff_frac_extreme = statistics.fmean(
        1 if (v < 0.5 or v > 2) else 0 for v in ff_errors.values()
    )
    assert frac_under > 0.5
    assert ff_frac_extreme < 0.1  # FlashFlow weights stay near truth


# ---------------------------------------------------------------------------
# Figure 9: performance under each weight set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [50 * 1024, 1024 * 1024, 5 * 1024 * 1024])
def test_fig9a_transfer_times_improve(result, size):
    """Paper: median TTLB decreases 15/29/37% under FlashFlow."""
    tf = result.run_for("torflow", 1.0).ttlb_stats(size)
    ff = result.run_for("flashflow", 1.0).ttlb_stats(size)
    assert ff["median"] < tf["median"]


def test_fig9a_consistency_improves(result):
    """Paper: TTLB standard deviations drop 41-61% under FlashFlow."""
    size = 5 * 1024 * 1024
    tf = result.run_for("torflow", 1.0).ttlb_stats(size)
    ff = result.run_for("flashflow", 1.0).ttlb_stats(size)
    assert ff["std"] < tf["std"]


def test_fig9b_timeouts_eliminated(result):
    """Paper: median timeout rate drops by 100% under FlashFlow."""
    for load in (1.0, 1.3):
        ff = result.run_for("flashflow", load)
        assert ff.median_error_rate() == 0.0
    # TorFlow shows failures somewhere across the load range.
    tf_failures = sum(
        result.run_for("torflow", load).metrics.transfers_failed()
        for load in (1.0, 1.3)
    )
    assert tf_failures > 0


def test_fig9c_throughput_higher_and_scales(result):
    """Paper: FF carries more traffic and scales better with load."""
    tf_100 = result.run_for("torflow", 1.0).metrics.median_throughput()
    ff_100 = result.run_for("flashflow", 1.0).metrics.median_throughput()
    tf_130 = result.run_for("torflow", 1.3).metrics.median_throughput()
    ff_130 = result.run_for("flashflow", 1.3).metrics.median_throughput()
    assert ff_100 > tf_100
    assert ff_130 > tf_130
    assert (ff_130 / ff_100) > (tf_130 / tf_100) * 0.98


def test_loaded_flashflow_beats_unloaded_torflow(result):
    """The paper's surprise: FF at 130% load still beats TF at 100%."""
    size = 1024 * 1024
    ff_130 = result.run_for("flashflow", 1.3).ttlb_stats(size)
    tf_100 = result.run_for("torflow", 1.0).ttlb_stats(size)
    assert ff_130["median"] < tf_100["median"] * 1.15


def test_run_for_unknown_raises(result):
    with pytest.raises(KeyError):
        result.run_for("torflow", 9.9)


# ---------------------------------------------------------------------------
# Weight pipelines in isolation
# ---------------------------------------------------------------------------

def test_torflow_pipeline_standalone():
    network = build_network(
        ShadowConfig(
            n_relays=40, n_markov_clients=30, n_benchmark_clients=4,
            sim_seconds=60, warmup_seconds=20, seed=5,
        )
    )
    weights = torflow_weights_for(network, seed=5, warmup_sim_seconds=60)
    assert set(weights) == set(network.relays.relays)
    assert all(w >= 0 for w in weights.values())


def test_flashflow_pipeline_standalone():
    network = build_network(
        ShadowConfig(
            n_relays=30, n_markov_clients=10, n_benchmark_clients=2,
            sim_seconds=30, warmup_seconds=10, seed=6,
        )
    )
    estimates = flashflow_weights_for(network, seed=6)
    assert set(estimates) == set(network.relays.relays)
    for fp, est in estimates.items():
        cap = network.relays[fp].true_capacity
        assert 0.4 * cap < est < 1.15 * cap


# ---------------------------------------------------------------------------
# Kernel routing: the measurement phase runs on the vectorized kernel
# ---------------------------------------------------------------------------

def test_flashflow_weights_match_stateful_engine(monkeypatch):
    """The shadow measurement phase on the kernel equals the same phase
    with every spec run through the stateful engine, bit for bit."""
    config = ShadowConfig(
        n_relays=24, n_markov_clients=10, n_benchmark_clients=2,
        sim_seconds=30, warmup_seconds=10, seed=5,
    )
    # A fresh network per run: relays are stateful (jitter RNG streams,
    # admission, token buckets), so re-measuring the same objects would
    # legitimately differ.
    with monkeypatch.context() as patch:
        use_stateful_reference(patch)
        reference = flashflow_weights_for(build_network(config), seed=5)
    weights = flashflow_weights_for(build_network(config), seed=5)
    assert len(reference) == 24
    assert weights == reference
