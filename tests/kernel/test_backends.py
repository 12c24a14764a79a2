"""Batch parity: the kernel's batch walk is the stateful reference's bits.

The contract: a seeded 30-relay campaign run on the kernel equals the
same campaign with every spec walked by the stateful reference
(``tests/oracles/stateful_engine.py``); ``run_many`` outcomes equal
per-spec reference outcomes; batches that share a target relay run in
ordered waves that match the reference in spec order; and a batch
holding a behaviour without a kernel program is refused before any of
its relays is touched.
"""

import pytest

from repro import quick_team
from repro.api import Campaign, ExecutionConfig, Scenario
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine, MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.tornet.network import synthesize_network
from repro.tornet.relay import Relay, RelayBehavior
from repro.units import mbit
from tests.oracles.stateful_engine import stateful_run, use_stateful_reference


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

    reference = [stateful_run(MeasurementEngine(), spec) for spec in specs()]
    outcomes = MeasurementEngine().run_many(specs())
    assert [o.estimate for o in outcomes] == [o.estimate for o in reference]
    assert [o.per_second_total for o in outcomes] \
        == [o.per_second_total for o in reference]
    assert [o.cells_checked for o in outcomes] \
        == [o.cells_checked for o in reference]


def test_duplicate_targets_run_in_ordered_waves():
    """Specs sharing a relay walk in successive waves, each compiled
    after the previous one settled: the relay's bucket, jitter stream
    and observed bandwidth advance exactly as in spec order."""
    params = FlashFlowParams()
    team = quick_team(seed=6).team

    def build(relay, other):
        return [
            MeasurementSpec(
                target=target,
                assignments=allocate_capacity(team, mbit(300)),
                params=params,
                seed=s,
                enforce_admission=False,
            )
            for s, target in ((1, relay), (2, other), (3, relay))
        ]

    def relays():
        shared = Relay.with_capacity("shared", mbit(100), seed=50)
        shared.set_rate_limit(mbit(90))
        return shared, Relay.with_capacity("other", mbit(120), seed=51)

    compiled_before = get_registry().counter("kernel.specs.compiled").value
    shared, other = relays()
    outcomes = MeasurementEngine().run_many(build(shared, other))
    assert get_registry().counter("kernel.specs.compiled").value \
        == compiled_before + 3
    twin, twin_other = relays()
    engine = MeasurementEngine()
    expected = [stateful_run(engine, spec) for spec in build(twin, twin_other)]
    _assert_matches_stateful(outcomes, expected)
    for relay, reference in ((shared, twin), (other, twin_other)):
        assert relay._rng.getstate() == reference._rng.getstate()
        assert vars(relay.observed_bw) == vars(reference.observed_bw)
    assert shared.bucket.tokens == twin.bucket.tokens


class _StatefulCustomBehavior(RelayBehavior):
    """A genuinely stateful custom behaviour: its report depends on
    running cross-second state, so ``kernel_program()`` inherits the
    base's ``None`` answer and the kernel must refuse the relay (the
    library behaviours all compile)."""

    name = "stateful-custom"

    def __init__(self):
        self._seconds = 0

    def report_background(self, actual_bytes, relay):
        self._seconds += 1
        return actual_bytes * (1.0 if self._seconds % 2 else 0.5)


def _assert_matches_stateful(outcomes, reference):
    assert [o.failed for o in outcomes] == [o.failed for o in reference]
    assert [o.estimate for o in outcomes] == [o.estimate for o in reference]
    assert [o.per_second_total for o in outcomes] \
        == [o.per_second_total for o in reference]
    assert [o.cells_checked for o in outcomes] \
        == [o.cells_checked for o in reference]


def _assert_batch_refused_untouched(custom, match):
    """Six relays, those indexed in ``custom`` carrying a programless
    behaviour: ``run_many`` raises ``ConfigurationError`` matching
    ``match`` before anything compiles, so no relay's admission ledger,
    jitter stream or token bucket moves and the compiled counter stays
    put."""
    params = FlashFlowParams()
    team = quick_team(seed=5).team
    relays = []
    for i in range(6):
        behavior = _StatefulCustomBehavior() if i in custom else None
        relay = Relay.with_capacity(
            f"relay{i}", mbit(60 + 25 * i), seed=400 + i, behavior=behavior
        )
        relay.set_rate_limit(mbit(50 + 25 * i))
        relays.append(relay)
    specs = [
        MeasurementSpec(
            target=relay,
            assignments=allocate_capacity(team, mbit(400)),
            params=params,
            seed=400 + i,
        )
        for i, relay in enumerate(relays)
    ]
    tokens = [relay.bucket.tokens for relay in relays]
    compiled_before = get_registry().counter("kernel.specs.compiled").value
    with pytest.raises(ConfigurationError, match=match):
        MeasurementEngine().run_many(specs)
    assert get_registry().counter("kernel.specs.compiled").value \
        == compiled_before
    for relay, before in zip(relays, tokens):
        assert relay._measured_in == set()
        assert relay._lazy_rng is None
        assert relay.bucket.tokens == before
        assert relay.observed_bw.observed() == 0


def test_programless_behavior_refuses_the_whole_batch_untouched():
    """One relay whose behaviour publishes no kernel program, among
    relays whose behaviours compile, fails the batch with an error
    naming the relay and the behaviour class; the compilable relays are
    left untouched too."""
    _assert_batch_refused_untouched({4}, "'relay4'.*_StatefulCustomBehavior")


def test_all_programless_batch_is_refused_untouched():
    """Every relay's behaviour publishes no kernel program: the error
    names the first such relay in spec order, and no relay is touched."""
    _assert_batch_refused_untouched(
        set(range(6)), "'relay0'.*_StatefulCustomBehavior"
    )
