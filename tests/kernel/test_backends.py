"""Batch parity: the kernel's batch walk is the stateful engine's bits.

The contract: a seeded 30-relay campaign run on the kernel equals the
same campaign with every spec run through the stateful
``MeasurementEngine.run``; ``run_many`` outcomes equal per-spec ``run``
outcomes; and batches that mix compiled and stateful fallback specs
(or share a target relay) match the stateful reference in spec order.
"""

from repro import quick_team
from repro.api import Campaign, ExecutionConfig, Scenario
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine, MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.obs import get_registry
from repro.tornet.network import synthesize_network
from repro.tornet.relay import Relay, RelayBehavior
from repro.units import mbit
from tests.oracles.stateful_engine import use_stateful_reference


def _campaign():
    network = synthesize_network(n_relays=30, seed=71)
    authority = quick_team(seed=72)
    report = Campaign(
        Scenario(network=network, team=authority), ExecutionConfig()
    ).run()
    return report.result


def test_campaign_matches_stateful_engine(monkeypatch):
    with monkeypatch.context() as patch:
        use_stateful_reference(patch)
        reference = _campaign()
    result = _campaign()
    assert len(reference.estimates) == 30
    assert result.estimates == reference.estimates
    assert result.failures == reference.failures
    assert result.slots_elapsed == reference.slots_elapsed
    assert result.measurements_run == reference.measurements_run


def test_stale_execution_env_vars_are_ignored(monkeypatch):
    """The environment variables that once picked a backend, a worker
    count or the shm transport are not read: values the old code would
    have rejected change nothing."""
    reference = _campaign()
    for name in ("FLASHFLOW_KERNEL_BACKEND", "FLASHFLOW_SHADOW_BACKEND",
                 "FLASHFLOW_WORKERS", "FLASHFLOW_SHM"):
        monkeypatch.setenv(name, "bogus")
    result = _campaign()
    assert result.estimates == reference.estimates
    assert result.slots_elapsed == reference.slots_elapsed


def test_run_many_matches_stateful_engine():
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
    outcomes = MeasurementEngine().run_many(specs())
    assert [o.estimate for o in outcomes] == [o.estimate for o in reference]
    assert [o.per_second_total for o in outcomes] \
        == [o.per_second_total for o in reference]
    assert [o.cells_checked for o in outcomes] \
        == [o.cells_checked for o in reference]


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
    outcomes = MeasurementEngine().run_many(specs)
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


def test_batch_mixing_compiled_and_fallback_specs():
    """Uncompilable specs (custom stateful behaviours) run on the
    stateful path while the rest of the batch walks on the kernel;
    outcomes still land in spec order, bit-identical to running every
    spec statefully."""
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
        _fallback_specs(team, custom=custom)
    )
    _assert_matches_stateful(outcomes, reference)
    assert registry.counter("kernel.specs.fallback").value \
        == fallback_before + len(custom)
    assert registry.counter("kernel.specs.compiled").value \
        == compiled_before + 24 - len(custom)


def test_all_fallback_batch_matches_stateful():
    """Every spec uncompilable: the whole batch takes the stateful
    fallback and the outcomes match the stateful reference, in spec
    order."""
    team = quick_team(seed=6).team
    all_custom = frozenset(range(12))
    reference = [
        MeasurementEngine().run(spec)
        for spec in _fallback_specs(team, n=12, custom=all_custom)
    ]
    outcomes = MeasurementEngine().run_many(
        _fallback_specs(team, n=12, custom=all_custom)
    )
    _assert_matches_stateful(outcomes, reference)
