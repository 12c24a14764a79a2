"""Compiled-measurement correctness: the kernel is a bit-exact lowering.

The contract: for honest relays, compiling a spec and executing it as a
vectorized array walk produces *bit-identical* outcomes and relay state
to the stateful ``MeasurementEngine.run`` path, and the compiled
capacity series matches a raw ``Relay.measured_second`` oracle walk
exactly. Behaviours without a kernel program (custom stateful
subclasses) and transcript sessions must refuse to compile; the
compiled-adversary oracle suite lives in ``test_adversary_compile.py``.
"""

import numpy as np
import pytest

from repro import quick_team
from repro.attacks.relays import TrafficLiarRelayBehavior
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine, MeasurementNoise, MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.kernel import compile_measurement, execute_batch, execute_compiled, is_compilable
from repro.netsim.latency import NetworkModel
from repro.rng import fork
from repro.tornet.relay import Relay, RelayBehavior
from repro.units import mbit


@pytest.fixture
def team():
    return quick_team(seed=1).team


def _relay(seed, cap_mbit, rate_limit_mbit=None, behavior=None):
    relay = Relay.with_capacity(
        "r", mbit(cap_mbit), seed=seed, behavior=behavior
    )
    if rate_limit_mbit is not None:
        relay.set_rate_limit(mbit(rate_limit_mbit))
    return relay


def _spec(relay, team, params, **kwargs):
    required = kwargs.pop("required", params.allocation_factor * mbit(200))
    return MeasurementSpec(
        target=relay,
        assignments=allocate_capacity(team, required),
        params=params,
        enforce_admission=False,
        **kwargs,
    )


CONFIGS = [
    # (seed, cap, rate limit, background, ratio, duration)
    (5, 100, None, 0.0, 0.25, None),
    (6, 250, None, mbit(30), 0.25, None),
    (7, 600, 550, mbit(80), 0.25, None),
    (8, 400, 350, 0.0, 0.0, 7),
    (9, 150, None, mbit(10), 0.5, 60),
]


def _config_specs(team, seed, cap, limit, bg, ratio, duration):
    params = FlashFlowParams(ratio=ratio)
    kwargs = dict(
        required=params.allocation_factor * mbit(cap),
        seed=seed * 13,
        background_demand=bg,
        duration=duration,
    )
    return (
        _spec(_relay(seed, cap, limit), team, params, **kwargs),
        _spec(_relay(seed, cap, limit), team, params, **kwargs),
    )


def test_compiled_outcome_matches_stateful_engine_bitwise(team):
    """Every outcome field equals the stateful path, bit for bit."""
    for config in CONFIGS:
        spec_ref, spec_kernel = _config_specs(team, *config)
        reference = MeasurementEngine().run(spec_ref)
        cm = compile_measurement(MeasurementEngine(), spec_kernel)
        assert cm is not None
        outcome = execute_compiled(cm).to_outcome()
        assert outcome.estimate == reference.estimate
        assert outcome.per_second_measurement == reference.per_second_measurement
        assert (
            outcome.per_second_background_reported
            == reference.per_second_background_reported
        )
        assert (
            outcome.per_second_background_clamped
            == reference.per_second_background_clamped
        )
        assert outcome.per_second_total == reference.per_second_total
        assert outcome.cells_checked == reference.cells_checked
        assert outcome.total_allocated == reference.total_allocated
        assert outcome.duration == reference.duration


def test_compiled_capacity_series_matches_measured_second_oracle(team):
    """The walk's capacity series equals a raw measured_second walk.

    The oracle reruns the relay's stateful per-second walk on a twin
    relay, feeding it the supply series the kernel computed, and
    compares SecondReport.capacity_bits (and all traffic splits)
    element for element.
    """
    for config in CONFIGS:
        seed = config[0]
        spec_ref, spec_kernel = _config_specs(team, *config)
        params = spec_kernel.params
        engine = MeasurementEngine()
        cm = compile_measurement(engine, spec_kernel)
        supply = cm.supply_series()
        result = execute_compiled(cm)

        plan_inputs = engine.prepare_inputs(spec_ref)
        oracle = spec_ref.target
        for second in range(cm.duration):
            report = oracle.measured_second(
                measurement_supply_bits=float(supply[second]),
                background_demand_bits=float(cm.background[second]),
                ratio_r=params.ratio,
                n_measurement_sockets=params.n_sockets,
                external_factor=plan_inputs.env,
            )
            assert report.capacity_bits == result.capacity_bits[second]
            assert report.measurement_bytes * 8.0 == result.measurement[second]
            assert (
                report.background_reported_bytes * 8.0
                == result.background_reported[second]
            )
            assert report.measurement_bytes + report.background_actual_bytes \
                == result.total_bytes[second]


def test_compiled_relay_state_matches_stateful_engine(team):
    """Bucket fill, observed bandwidth, and RNG position all settle."""
    for config in CONFIGS:
        spec_ref, spec_kernel = _config_specs(team, *config)
        MeasurementEngine().run(spec_ref)
        engine = MeasurementEngine()
        cm = compile_measurement(engine, spec_kernel)
        result = execute_compiled(cm)
        spec_kernel.target.settle_measured_walk(
            result.total_bytes.tolist(), result.final_bucket_tokens
        )
        ref_relay, kernel_relay = spec_ref.target, spec_kernel.target
        if ref_relay.bucket is not None:
            assert ref_relay.bucket.tokens == kernel_relay.bucket.tokens
        assert (
            ref_relay.observed_bw.observed()
            == kernel_relay.observed_bw.observed()
        )
        # Same stream position: the next draw must coincide.
        assert ref_relay._rng.random() == kernel_relay._rng.random()


def test_execute_batch_equals_execute_compiled(team):
    """Batching across measurements never changes any element."""
    params = FlashFlowParams()
    specs_a = [
        _spec(_relay(40 + i, 80 + 40 * i, 100 + 50 * i if i % 2 else None),
              team, params, seed=40 + i,
              required=params.allocation_factor * mbit(80 + 40 * i))
        for i in range(6)
    ]
    specs_b = [
        _spec(_relay(40 + i, 80 + 40 * i, 100 + 50 * i if i % 2 else None),
              team, params, seed=40 + i,
              required=params.allocation_factor * mbit(80 + 40 * i))
        for i in range(6)
    ]
    cms_a = [
        compile_measurement(MeasurementEngine(), s, i)
        for i, s in enumerate(specs_a)
    ]
    cms_b = [
        compile_measurement(MeasurementEngine(), s, i)
        for i, s in enumerate(specs_b)
    ]
    batched = execute_batch(cms_a)
    singles = [execute_compiled(cm) for cm in cms_b]
    for one, many in zip(singles, batched):
        assert one.estimate == many.estimate
        assert np.array_equal(one.totals, many.totals)
        assert np.array_equal(one.capacity_bits, many.capacity_bits)
        assert one.final_bucket_tokens == many.final_bucket_tokens


def test_compiled_with_network_model_matches_engine(team):
    """Network-resolved paths and qualities survive compilation."""
    params = FlashFlowParams()
    model_a = NetworkModel.paper_internet(seed=3)
    model_b = NetworkModel.paper_internet(seed=3)
    noise = MeasurementNoise(target_env_mean=0.9, target_env_std=0.05)

    def spec_for(model):
        return MeasurementSpec(
            target=Relay.with_capacity("r", mbit(300), seed=4),
            assignments=allocate_capacity(team, mbit(700)),
            params=params,
            network=model,
            target_location="US-SW",
            noise=noise,
            seed=99,
            enforce_admission=False,
        )

    reference = MeasurementEngine(network=model_a).run(spec_for(model_a))
    cm = compile_measurement(
        MeasurementEngine(network=model_b), spec_for(model_b)
    )
    outcome = execute_compiled(cm).to_outcome()
    assert outcome.estimate == reference.estimate
    assert outcome.per_second_total == reference.per_second_total


def test_admission_refusal_compiles_to_failed_outcome(team):
    params = FlashFlowParams()
    relay = _relay(11, 100)
    relay.accept_measurement("bwauth0", 0)
    spec = MeasurementSpec(
        target=relay,
        assignments=allocate_capacity(team, mbit(300)),
        params=params,
        seed=5,
    )
    cm = compile_measurement(MeasurementEngine(), spec)
    assert cm.outcome is not None and cm.outcome.failed
    result = execute_compiled(cm)
    assert result.to_outcome().failed
    assert result.total_bytes.size == 0


def test_only_stateful_custom_behaviors_refuse_to_compile(team):
    """The four common attacks compile; unknown subclasses never do."""
    params = FlashFlowParams()
    engine = MeasurementEngine()

    # Program-carrying behaviours (honest + the four §5 attacks) compile.
    from repro.attacks.relays import (
        ForgingRelayBehavior,
        RatioCheatingRelayBehavior,
        SelectiveCapacityRelayBehavior,
    )

    for i, behavior in enumerate(
        [
            None,
            TrafficLiarRelayBehavior(),
            RatioCheatingRelayBehavior(),
            ForgingRelayBehavior(seed=3),
            SelectiveCapacityRelayBehavior(seed=4),
        ]
    ):
        relay = _relay(12 + i, 200, behavior=behavior)
        assert is_compilable(engine, _spec(relay, team, params, seed=1))

    # A custom subclass inheriting the honest hooks must NOT silently
    # compile as honest: kernel_program answers for the exact base type
    # only.
    class CustomBehavior(RelayBehavior):
        name = "custom"

    custom = _relay(20, 200, behavior=CustomBehavior())
    assert custom.behavior.kernel_program() is None
    assert not is_compilable(engine, _spec(custom, team, params, seed=1))
    assert (
        compile_measurement(engine, _spec(custom, team, params, seed=1))
        is None
    )

    session_spec = _spec(_relay(14, 200), team, params, seed=3, session=object())
    assert not is_compilable(engine, session_spec)

    no_reuse = MeasurementEngine(reuse_circuit_keys=False)
    assert not is_compilable(no_reuse, _spec(_relay(15, 200), team, params, seed=4))


def test_run_many_mixed_honest_and_adversarial_matches_stateful(team):
    """Fallback specs interleave with compiled ones, in spec order."""
    params = FlashFlowParams()

    def build(tag):
        specs = []
        for i in range(6):
            behavior = TrafficLiarRelayBehavior() if i % 3 == 2 else None
            relay = Relay.with_capacity(
                f"relay{i}", mbit(100 + 30 * i), seed=50 + i, behavior=behavior
            )
            specs.append(
                _spec(relay, team, params, seed=50 + i,
                      required=params.allocation_factor * mbit(100 + 30 * i))
            )
        return specs

    stateful = [MeasurementEngine().run(s) for s in build("a")]
    kernel = MeasurementEngine().run_many(build("b"))
    assert [o.estimate for o in kernel] == [o.estimate for o in stateful]
    assert [o.per_second_total for o in kernel] \
        == [o.per_second_total for o in stateful]


def test_supply_noise_resumes_the_measurement_stream(team):
    """The shipped RNG state replays the engine's draw positions."""
    params = FlashFlowParams()
    spec = _spec(_relay(16, 200), team, params, seed=77)
    engine = MeasurementEngine()
    cm = compile_measurement(engine, spec)
    n_active = len(cm.assignments)
    # Reference: re-fork the stream and burn the prepare-phase draws.
    rng = fork(77, "measurement-bwauth0-r-0")
    rng.gauss(0, 1)  # env draw position
    for _ in range(n_active):
        rng.gauss(0, 1)  # quality draw positions
    # The state must produce duration * n draws with the engine's clamp.
    noise = cm.supply_noise()
    assert noise.shape == (n_active, cm.duration)
    assert float(noise[0, 0]) >= 0.3


def test_verify_payload_stream_matches_stateful_verifier(team):
    """The compiled ``payload_seed`` is the ``verify-payload-*`` fork.

    The stateful engine hands its EchoVerifier a dedicated
    ``fork(seed, "verify-payload-<fp>")`` stream for sampled-cell
    payloads; the kernel replay must reconstruct byte-for-byte the same
    stream from ``cm.payload_seed`` -- never ambient entropy, and never
    the ``verify-*`` sample-count stream (whose draw positions are
    load-bearing for cells_checked and forge-detection timing).
    """
    import random

    from repro.tornet.cell import PAYLOAD_LEN

    params = FlashFlowParams()
    spec = _spec(_relay(21, 200), team, params, seed=91)
    cm = compile_measurement(MeasurementEngine(), spec)
    fingerprint = spec.target.fingerprint

    stateful = fork(91, f"verify-payload-{fingerprint}")
    replay = random.Random(cm.payload_seed)
    assert [replay.randbytes(PAYLOAD_LEN) for _ in range(8)] \
        == [stateful.randbytes(PAYLOAD_LEN) for _ in range(8)]

    # Distinct stream: drawing payloads must not move verify-* positions.
    verify = fork(91, f"verify-{fingerprint}")
    assert random.Random(cm.verify_seed).random() == verify.random()
    assert cm.payload_seed != cm.verify_seed


def test_verification_outcome_invariant_to_payload_stream(team):
    """Honest echo verification is payload-content-independent.

    The relay's echo is *defined* as the local decryption of whatever
    payload arrives, so cells_checked and the estimate cannot depend on
    payload bytes -- the property that made replacing ``os.urandom``
    payloads with the seeded stream a bit-identical change. Pin it by
    running the stateful verifier against two different payload streams.
    """
    import random

    from repro.core.verification import EchoVerifier

    spec = _spec(_relay(22, 150), team, FlashFlowParams(), seed=92)
    relay = spec.target

    def run(payload_seed):
        verifier = EchoVerifier(
            p_check=0.1, rng=random.Random(123),
            payload_rng=random.Random(payload_seed),
        )
        per_second = [
            verifier.verify_second(relay, 400 * 514) for _ in range(5)
        ]
        return per_second, verifier.cells_checked

    checks_a, checked_a = run(1)
    checks_b, checked_b = run(2)
    assert checked_a == checked_b
    assert checks_a == checks_b
