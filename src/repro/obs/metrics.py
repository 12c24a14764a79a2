"""A zero-dependency metrics registry: counters, gauges, histograms.

Instrumented at the campaign/kernel choke points -- rounds retried,
specs fallen back to the stateful path, shadow churns -- at round
granularity, never per second, so the always-on cost is a dict lookup
and an integer add per event.

Two registries matter in practice:

- the **global registry** (:func:`get_registry`): the process-wide
  sink the kernel's counters land in (``kernel.specs.fallback``,
  ``engine.stateful_rounds``). Trace exporters snapshot it into the
  trace file; tests
  :func:`reset_registry` around assertions.
- **private registries**: :class:`repro.api.events.MetricsObserver`
  and friends each own one, so per-campaign numbers never mix with
  another run's.

:func:`warn_once` is the companion for silent-degradation paths: a
counter says *how often*, the one-shot :class:`DegradationWarning`
says *that it happened at all* without spamming a long-running daemon.
"""

from __future__ import annotations

import threading
import warnings

__all__ = [
    "Counter",
    "DegradationWarning",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "reset_warnings",
    "warn_once",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value; the high-water mark is kept alongside."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value


class Histogram:
    """Observed samples with count/sum/min/max plus the raw values.

    Raw samples are retained (observations happen at round granularity,
    so memory is bounded by campaign length); ``samples`` is what lets
    :class:`repro.api.events.TimingObserver` expose its historical
    ``round_seconds`` list straight off the registry.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.samples.append(value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Create-on-first-use instrument store, snapshot-able to plain dicts."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.setdefault(name, Histogram(name))
        return h

    def snapshot(self) -> dict:
        """All instruments as plain JSON-serialisable dicts."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: {"value": g.value, "max": g.max_value}
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": round(h.total, 6),
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": round(h.mean(), 6),
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


#: The process-wide registry kernel degradation counters land in.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The global registry (kernel choke points increment into this)."""
    return _GLOBAL


def reset_registry() -> None:
    """Clear the global registry (test isolation)."""
    _GLOBAL.reset()


class DegradationWarning(RuntimeWarning):
    """A silent-degradation path was taken (a fallback that keeps results)."""


#: Keys already warned about this process (one-shot semantics).
_warned: set[str] = set()
_warned_lock = threading.Lock()


def warn_once(key: str, message: str) -> bool:
    """Emit ``message`` as a :class:`DegradationWarning` once per process.

    Returns True if the warning fired (first time for ``key``). The
    paired counter still increments every time, so repeated degradation
    stays countable while a long-running process logs it exactly once.
    """
    with _warned_lock:
        if key in _warned:
            return False
        _warned.add(key)
    warnings.warn(message, DegradationWarning, stacklevel=3)
    return True


def reset_warnings() -> None:
    """Forget which one-shot warnings fired (test isolation)."""
    with _warned_lock:
        _warned.clear()
