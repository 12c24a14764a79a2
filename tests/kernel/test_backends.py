"""Backend parity: every backend is the same bits, differently scheduled.

The contract: ``serial`` and ``process`` backends produce identical
:class:`CampaignResult`s for a seeded 30-relay network (and the
``vector`` default matches too), batches that mix compiled and stateful
fallback specs match the stateful reference, backend selection
resolves params over environment over default, and unknown names --
including the retired ``thread`` and ``analytic`` -- fail loudly.
"""

import os

import pytest

from repro import quick_team
from repro.api import Campaign, ExecutionConfig, Scenario
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine, MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.errors import ConfigurationError
from repro.kernel.backends import (
    BACKEND_ENV_VAR,
    backend_names,
    get_backend,
    resolve_backend_name,
)
from repro.obs import get_registry
from repro.tornet.network import synthesize_network
from repro.tornet.relay import Relay, RelayBehavior
from repro.units import mbit

ALL_BACKENDS = ("serial", "process", "vector")

#: Backend names that were registered once and must now be rejected.
RETIRED_BACKENDS = ("thread", "analytic")


def _campaign(backend):
    network = synthesize_network(n_relays=30, seed=71)
    authority = quick_team(seed=72)
    report = Campaign(
        Scenario(network=network, team=authority),
        ExecutionConfig(backend=backend, max_workers=2),
    ).run()
    return report.result


def test_all_backends_produce_identical_campaign_results():
    results = {backend: _campaign(backend) for backend in ALL_BACKENDS}
    reference = results["serial"]
    assert len(reference.estimates) == 30
    for backend, result in results.items():
        assert result.estimates == reference.estimates, backend
        assert result.failures == reference.failures, backend
        assert result.slots_elapsed == reference.slots_elapsed, backend
        assert result.measurements_run == reference.measurements_run, backend


def test_backends_match_stateful_engine_on_run_many():
    params = FlashFlowParams()
    team = quick_team(seed=4).team

    def specs():
        out = []
        for i in range(8):
            relay = Relay.with_capacity(
                f"relay{i}", mbit(80 + 40 * i), seed=90 + i
            )
            out.append(
                MeasurementSpec(
                    target=relay,
                    assignments=allocate_capacity(team, mbit(500)),
                    params=params,
                    seed=90 + i,
                    enforce_admission=False,
                )
            )
        return out

    reference = [MeasurementEngine().run(spec) for spec in specs()]
    for backend in ALL_BACKENDS:
        outcomes = MeasurementEngine().run_many(
            specs(), backend=backend, max_workers=2
        )
        assert [o.estimate for o in outcomes] \
            == [o.estimate for o in reference], backend
        assert [o.per_second_total for o in outcomes] \
            == [o.per_second_total for o in reference], backend
        assert [o.cells_checked for o in outcomes] \
            == [o.cells_checked for o in reference], backend


def test_registry_and_resolution():
    assert set(ALL_BACKENDS) <= set(backend_names())
    # auto -> vector; explicit beats params; params beat environment.
    assert resolve_backend_name(None, None) == "vector"
    assert resolve_backend_name("serial", "process") == "serial"
    assert resolve_backend_name(None, "process") == "process"
    old = os.environ.get(BACKEND_ENV_VAR)
    try:
        os.environ[BACKEND_ENV_VAR] = "process"
        assert resolve_backend_name(None, None) == "process"
        assert resolve_backend_name(None, "serial") == "serial"
    finally:
        if old is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = old
    with pytest.raises(ConfigurationError):
        get_backend("not-a-backend")


def test_invalid_env_backend_fails_fast_at_resolution(monkeypatch):
    """A typo'd (or retired) FLASHFLOW_KERNEL_BACKEND raises at
    resolution time, naming the registered backends -- not a raw
    KeyError mid-campaign."""
    for bad in ("vectr",) + RETIRED_BACKENDS:
        monkeypatch.setenv(BACKEND_ENV_VAR, bad)
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend_name(None, None)
        message = str(excinfo.value)
        assert BACKEND_ENV_VAR in message and repr(bad) in message
        for name in backend_names():
            assert name in message
    # Explicit and params-sourced names validate identically.
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    for bad in ("bogus",) + RETIRED_BACKENDS:
        with pytest.raises(ConfigurationError, match="backend argument"):
            resolve_backend_name(bad, None)
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            resolve_backend_name(None, bad)
        with pytest.raises(ConfigurationError, match="known backends"):
            get_backend(bad)


def test_invalid_env_backend_fails_before_any_measurement(monkeypatch):
    """The campaign path surfaces the env typo as ConfigurationError."""
    network = synthesize_network(n_relays=3, seed=11)
    authority = quick_team(seed=12)
    for bad in ("not-a-backend",) + RETIRED_BACKENDS:
        monkeypatch.setenv(BACKEND_ENV_VAR, bad)
        campaign = Campaign(Scenario(network=network, team=authority),
                            ExecutionConfig())
        with pytest.raises(ConfigurationError, match="known backends"):
            campaign.run()
        # The analytic path validates identically.
        campaign = Campaign(Scenario(network=network, team=authority),
                            ExecutionConfig(full_simulation=False))
        with pytest.raises(ConfigurationError, match="known backends"):
            campaign.run()


def test_params_kernel_backend_is_honoured():
    params = FlashFlowParams(kernel_backend="serial")
    team = quick_team(seed=5, params=params).team
    specs = [
        MeasurementSpec(
            target=Relay.with_capacity(f"r{i}", mbit(100 + i), seed=i),
            assignments=allocate_capacity(team, mbit(300)),
            params=params,
            seed=i,
            enforce_admission=False,
        )
        for i in range(3)
    ]
    outcomes = MeasurementEngine().run_many(specs)
    assert all(not o.failed for o in outcomes)
    with pytest.raises(ConfigurationError):
        FlashFlowParams(kernel_backend="")


def test_duplicate_targets_still_fall_back_to_stateful_serial():
    params = FlashFlowParams()
    team = quick_team(seed=6).team
    shared = Relay.with_capacity("shared", mbit(100), seed=50)
    specs = [
        MeasurementSpec(
            target=shared,
            assignments=allocate_capacity(team, mbit(300)),
            params=params,
            seed=s,
            enforce_admission=False,
        )
        for s in (1, 2)
    ]
    outcomes = MeasurementEngine().run_many(specs, backend="process")
    twin = Relay.with_capacity("shared", mbit(100), seed=50)
    engine = MeasurementEngine()
    expected = [
        engine.run(
            MeasurementSpec(
                target=twin,
                assignments=allocate_capacity(team, mbit(300)),
                params=params,
                seed=s,
                enforce_admission=False,
            )
        )
        for s in (1, 2)
    ]
    assert [o.estimate for o in outcomes] == [o.estimate for o in expected]


class _StatefulCustomBehavior(RelayBehavior):
    """A genuinely stateful custom behaviour: its report depends on
    running cross-second state, so ``kernel_program()`` inherits the
    base's ``None`` answer and the spec must take the stateful fallback
    (the four library attacks all compile)."""

    name = "stateful-custom"

    def __init__(self):
        self._seconds = 0

    def report_background(self, actual_bytes, relay):
        self._seconds += 1
        return actual_bytes * (1.0 if self._seconds % 2 else 0.5)


def _fallback_specs(team, n=24, seed0=400, custom=()):
    params = FlashFlowParams()
    specs = []
    for i in range(n):
        behavior = _StatefulCustomBehavior() if i in custom else None
        relay = Relay.with_capacity(
            f"relay{i}", mbit(60 + 25 * i), seed=seed0 + i, behavior=behavior
        )
        specs.append(
            MeasurementSpec(
                target=relay,
                assignments=allocate_capacity(team, mbit(400)),
                params=params,
                seed=seed0 + i,
                enforce_admission=False,
            )
        )
    return specs


def _assert_matches_stateful(outcomes, reference):
    assert [o.failed for o in outcomes] == [o.failed for o in reference]
    assert [o.estimate for o in outcomes] == [o.estimate for o in reference]
    assert [o.per_second_total for o in outcomes] \
        == [o.per_second_total for o in reference]
    assert [o.cells_checked for o in outcomes] \
        == [o.cells_checked for o in reference]


def test_process_batch_mixing_compiled_and_fallback_specs():
    """Uncompilable specs (custom stateful behaviours) run on the
    stateful path while the rest of the batch goes through the process
    pool; outcomes still land in spec order, bit-identical to running
    every spec statefully."""
    team = quick_team(seed=5).team
    custom = {3, 11, 17}
    reference = [
        MeasurementEngine().run(spec)
        for spec in _fallback_specs(team, custom=custom)
    ]
    registry = get_registry()
    compiled_before = registry.counter("kernel.specs.compiled").value
    fallback_before = registry.counter("kernel.specs.fallback").value
    outcomes = MeasurementEngine().run_many(
        _fallback_specs(team, custom=custom), backend="process", max_workers=2
    )
    _assert_matches_stateful(outcomes, reference)
    assert registry.counter("kernel.specs.fallback").value \
        == fallback_before + len(custom)
    assert registry.counter("kernel.specs.compiled").value \
        == compiled_before + 24 - len(custom)


def test_process_all_fallback_batch_matches_stateful():
    """Every spec uncompilable: the whole batch takes the stateful
    fallback on ``process`` and the outcomes match the stateful
    reference, in spec order."""
    team = quick_team(seed=6).team
    all_custom = frozenset(range(12))
    reference = [
        MeasurementEngine().run(spec)
        for spec in _fallback_specs(team, n=12, custom=all_custom)
    ]
    outcomes = MeasurementEngine().run_many(
        _fallback_specs(team, n=12, custom=all_custom),
        backend="process", max_workers=2,
    )
    _assert_matches_stateful(outcomes, reference)


def test_process_all_fallback_batch_never_starts_a_pool():
    """An all-fallback batch must not spawn workers it will never use:
    nothing reaches the backend, and an empty batch handed to it
    directly returns without a pool either."""
    team = quick_team(seed=6).team
    backend = get_backend("process")
    backend.shutdown()
    outcomes = MeasurementEngine().run_many(
        _fallback_specs(team, n=12, custom=frozenset(range(12))),
        backend="process", max_workers=2,
    )
    assert len(outcomes) == 12
    assert backend._pool is None
    assert backend.run([], max_workers=4) == []
    assert backend._pool is None
