"""Metrics registry unit tests: instruments, snapshots, one-shot warnings."""

from __future__ import annotations

import warnings

import pytest

from repro.obs import (
    DegradationWarning,
    MetricsRegistry,
    get_registry,
    reset_registry,
    reset_warnings,
    warn_once,
)


@pytest.fixture(autouse=True)
def _isolate_global_state():
    reset_registry()
    reset_warnings()
    yield
    reset_registry()
    reset_warnings()


def test_counter_increments():
    registry = MetricsRegistry()
    c = registry.counter("rounds")
    c.inc()
    c.inc(4)
    assert c.value == 5
    # Create-on-first-use returns the same instrument for the same name.
    assert registry.counter("rounds") is c


def test_gauge_tracks_high_water_mark():
    g = MetricsRegistry().gauge("in_flight")
    g.set(3)
    g.set(7)
    g.set(2)
    assert g.value == 2
    assert g.max_value == 7


def test_histogram_aggregates_and_retains_samples():
    h = MetricsRegistry().histogram("round.wall_seconds")
    for value in (0.5, 1.5, 1.0):
        h.observe(value)
    assert h.count == 3
    assert h.total == pytest.approx(3.0)
    assert h.min == 0.5
    assert h.max == 1.5
    assert h.mean() == pytest.approx(1.0)
    assert h.samples == [0.5, 1.5, 1.0]


def test_empty_histogram_mean_is_zero():
    assert MetricsRegistry().histogram("h").mean() == 0.0


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("kernel.shm.fallbacks").inc(2)
    registry.gauge("service.relays").set(3)
    registry.histogram("round.wall_seconds").observe(0.25)
    snap = registry.snapshot()
    assert snap["counters"] == {"kernel.shm.fallbacks": 2}
    assert snap["gauges"] == {
        "service.relays": {"value": 3, "max": 3}
    }
    assert snap["histograms"]["round.wall_seconds"] == {
        "count": 1,
        "total": 0.25,
        "min": 0.25,
        "max": 0.25,
        "mean": 0.25,
    }


def test_empty_histogram_snapshot_has_null_bounds():
    registry = MetricsRegistry()
    registry.histogram("h")
    snap = registry.snapshot()["histograms"]["h"]
    assert snap["min"] is None and snap["max"] is None
    assert snap["count"] == 0


def test_registry_reset_clears_everything():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1)
    registry.histogram("h").observe(1)
    registry.reset()
    assert registry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


def test_global_registry_is_a_singleton():
    get_registry().counter("test.probe").inc()
    assert get_registry().counter("test.probe").value == 1
    reset_registry()
    assert get_registry().counter("test.probe").value == 0


def test_warn_once_fires_exactly_once_per_key():
    with pytest.warns(DegradationWarning, match="shm gone"):
        assert warn_once("k1", "shm gone") is True
    # Second call for the same key: silent, returns False.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert warn_once("k1", "shm gone") is False
    # A different key still fires.
    with pytest.warns(DegradationWarning):
        assert warn_once("k2", "pool rebuilt") is True


def test_reset_warnings_rearms_the_one_shot():
    with pytest.warns(DegradationWarning):
        warn_once("k", "msg")
    reset_warnings()
    with pytest.warns(DegradationWarning):
        assert warn_once("k", "msg") is True


def test_degradation_warning_is_a_runtime_warning():
    # RuntimeWarning, not DeprecationWarning: pytest's filterwarnings
    # must never turn an environmental degradation into a test failure.
    assert issubclass(DegradationWarning, RuntimeWarning)
    assert not issubclass(DegradationWarning, DeprecationWarning)
