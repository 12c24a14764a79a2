"""The ``FLASHFLOW_WORKERS`` worker-count override."""

import pytest

from repro.errors import ConfigurationError
from repro.workers import WORKERS_ENV, workers_from_env


@pytest.fixture
def workers_env(monkeypatch):
    def set_env(value):
        if value is None:
            monkeypatch.delenv(WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(WORKERS_ENV, value)

    return set_env


def test_env_override(workers_env):
    workers_env("3")
    assert workers_from_env() == 3
    workers_env("  12  ")
    assert workers_from_env() == 12


def test_unset_or_empty_env_is_no_override(workers_env):
    workers_env(None)
    assert workers_from_env() is None
    workers_env("   ")
    assert workers_from_env() is None


@pytest.mark.parametrize("bad", ["zero", "2.5", "1e3", "-", ""])
def test_non_integer_env_raises(workers_env, bad):
    workers_env(bad or " ")
    if not bad.strip():
        assert workers_from_env() is None
        return
    with pytest.raises(ConfigurationError, match="must be an integer"):
        workers_from_env()


@pytest.mark.parametrize("bad", ["0", "-1", "-32"])
def test_non_positive_env_raises(workers_env, bad):
    workers_env(bad)
    with pytest.raises(ConfigurationError, match="must be positive"):
        workers_from_env()


def _network_specs():
    from repro import quick_team
    from repro.core.allocation import allocate_capacity
    from repro.core.engine import MeasurementSpec
    from repro.tornet.network import synthesize_network
    from repro.units import mbit

    net = synthesize_network(n_relays=4, seed=61)
    authority = quick_team(seed=62)
    return [
        MeasurementSpec(
            target=net[fp],
            assignments=allocate_capacity(authority.team, mbit(400)),
            params=authority.params,
            seed=90 + i,
            enforce_admission=False,
        )
        for i, fp in enumerate(net.relays)
    ]


def test_engine_run_many_respects_env_override(workers_env):
    """The override sizes the pool; the outcomes never depend on it."""
    from repro.core.engine import MeasurementEngine

    def outcomes(env_value):
        workers_env(env_value)
        engine = MeasurementEngine()
        return [
            (o.estimate, o.failed)
            for o in engine.run_many(_network_specs(), backend="process")
        ]

    assert outcomes("1") == outcomes("4") == outcomes(None)


@pytest.mark.parametrize("backend", ["serial", "process", "vector"])
def test_engine_run_many_validates_env_on_every_backend(workers_env, backend):
    from repro.core.engine import MeasurementEngine

    workers_env("zero")
    with pytest.raises(ConfigurationError, match=WORKERS_ENV):
        MeasurementEngine().run_many(_network_specs(), backend=backend)
    # An explicit worker count never consults the environment.
    outcomes = MeasurementEngine().run_many(
        _network_specs(), backend=backend, max_workers=1
    )
    assert len(outcomes) == 4
