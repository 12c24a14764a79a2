"""Tests for the measurement engine.

The contract under test: the engine's precomputation and batching are
pure reorganisations of the historical serial per-second loop -- same
forked RNG streams consumed in the same order -- so its outcomes are
*bit-identical* to serial execution on the stateful reference walk
(``tests/oracles/stateful_engine.py``), single specs and batches alike.
"""

import statistics
import sys
import threading

import pytest

import repro.core.engine as engine_module
from repro import quick_team
from repro.attacks.relays import ForgingRelayBehavior
from repro.api import Campaign, ExecutionConfig, get_scenario
from repro.core.allocation import allocate_capacity, total_allocated
from repro.core.engine import (
    MeasurementEngine,
    MeasurementNoise,
    MeasurementSpec,
    clamp_background,
)
from repro.core.measurement import run_measurement
from repro.core.measurer import measurer_socket_efficiency
from repro.core.messages import MessageType, SigningIdentity
from repro.core.netmeasure import measure_network
from repro.core.params import FlashFlowParams
from repro.core.session import MeasurementSession
from repro.errors import ConfigurationError
from repro.netsim.latency import NetworkModel, Path, internet_loss_for_rtt
from repro.netsim.socketbuf import KernelConfig
from repro.netsim.tcp import tcp_ramp_profile, tcp_rate_cap
from repro.rng import fork
from repro.shadow.experiment import SHADOW_MEASUREMENT_NOISE
from repro.tornet.network import synthesize_network
from repro.tornet.relay import Relay
from repro.units import bits_to_bytes, mbit
from tests.oracles.stateful_engine import (
    EchoVerifier,
    analytic_estimate,
    measured_second,
    stateful_run,
)


def _reference_run_measurement(
    target, assignments, params, seed=0, background_demand=0.0,
    duration=None, noise=None, bwauth_id="bwauth0", period_index=0,
    default_rtt=0.118,
):
    """The pre-engine serial loop, kept verbatim as the oracle.

    Re-derives TCP caps and noise socket-by-socket, second-by-second --
    exactly what ``MeasurementEngine`` batches away.
    """
    noise = noise or MeasurementNoise()
    duration = params.slot_seconds if duration is None else duration
    rng = fork(seed, f"measurement-{bwauth_id}-{target.fingerprint}-{period_index}")
    active = [a for a in assignments if a.participates]
    socket_share = max(1, params.n_sockets // len(active))
    target_kernel = (
        target.host.kernel if target.host is not None else KernelConfig.default()
    )
    env = min(
        noise.target_env_max,
        max(noise.target_env_min,
            rng.gauss(noise.target_env_mean, noise.target_env_std)),
    )
    setups = []
    for a in active:
        path = Path(
            src=a.measurer.host.name, dst="target",
            rtt_seconds=default_rtt, loss=internet_loss_for_rtt(default_rtt),
        )
        quality = max(0.45, min(1.0, rng.gauss(0.92, 0.10)))
        setups.append((a, path, quality))
    verifier = EchoVerifier(params.p_check, fork(seed, f"verify-{target.fingerprint}"))
    bg_of = (
        background_demand
        if callable(background_demand)
        else (lambda _t, v=float(background_demand): v)
    )
    zs = []
    for second in range(duration):
        supply_total = 0.0
        for a, path, quality in setups:
            per_socket = tcp_rate_cap(
                path, a.measurer.host.kernel, target_kernel,
                age_seconds=float(second),
            )
            socket_cap = per_socket * socket_share * quality
            per_second = max(0.3, rng.gauss(1.0, noise.supply_noise_std))
            supply_total += (
                min(a.allocated, socket_cap, a.measurer.host.link_capacity)
                * measurer_socket_efficiency(socket_share)
                * per_second
            )
        report = measured_second(
            target,
            measurement_supply_bits=supply_total,
            background_demand_bits=bg_of(second),
            ratio_r=params.ratio,
            n_measurement_sockets=params.n_sockets,
            external_factor=env,
        )
        x_bits = report.measurement_bytes * 8.0
        y_clamped = clamp_background(
            x_bits, report.background_reported_bytes * 8.0, params.ratio
        )
        zs.append(x_bits + y_clamped)
        verifier.verify_second(target, bits_to_bytes(x_bits))
    return float(statistics.median(zs)), zs, verifier.cells_checked


@pytest.fixture
def engine():
    return MeasurementEngine()


def _spec(relay, team, required, params, **kwargs):
    return MeasurementSpec(
        target=relay,
        assignments=allocate_capacity(team, required),
        params=params,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Old-vs-new equivalence
# ---------------------------------------------------------------------------

def test_engine_matches_serial_reference_exactly(engine):
    """Engine estimates reproduce the serial loop bit-for-bit."""
    params = FlashFlowParams()
    auth = quick_team(seed=1)
    for seed, cap_mbit, bg in [(5, 100, 0.0), (6, 250, mbit(30)), (7, 600, 0.0)]:
        relay_ref = Relay.with_capacity("r", mbit(cap_mbit), seed=seed)
        relay_eng = Relay.with_capacity("r", mbit(cap_mbit), seed=seed)
        assignments = allocate_capacity(
            auth.team, params.allocation_factor * mbit(cap_mbit)
        )
        ref_estimate, ref_zs, ref_cells = _reference_run_measurement(
            relay_ref, assignments, params, seed=seed * 11,
            background_demand=bg,
        )
        outcome = engine.run(
            MeasurementSpec(
                target=relay_eng, assignments=assignments, params=params,
                seed=seed * 11, background_demand=bg,
                enforce_admission=False,
            )
        )
        assert outcome.estimate == ref_estimate
        assert outcome.per_second_total == ref_zs
        assert outcome.cells_checked == ref_cells


def test_run_measurement_wrapper_goes_through_engine():
    """The public wrapper gives the stateful reference's bits."""
    params = FlashFlowParams()
    auth = quick_team(seed=2)
    relay_a = Relay.with_capacity("r", mbit(200), seed=3)
    relay_b = Relay.with_capacity("r", mbit(200), seed=3)
    assignments = allocate_capacity(auth.team, mbit(500))
    a = run_measurement(relay_a, assignments, params, seed=9)
    b = stateful_run(
        MeasurementEngine(),
        MeasurementSpec(
            target=relay_b, assignments=assignments, params=params, seed=9
        )
    )
    assert a.estimate == b.estimate
    assert a.per_second_total == b.per_second_total


def test_ramp_profile_matches_per_second_rate_caps():
    """tcp_ramp_profile == [tcp_rate_cap(age=s) for s], element for element."""
    kernel = KernelConfig.default()
    for rtt in (0.0002, 0.04, 0.21):
        path = Path("a", "b", rtt_seconds=rtt, loss=internet_loss_for_rtt(rtt))
        profile = tcp_ramp_profile(path, kernel, kernel, 40)
        expected = [
            tcp_rate_cap(path, kernel, kernel, age_seconds=float(s))
            for s in range(40)
        ]
        assert profile == expected


# ---------------------------------------------------------------------------
# Batches: shared targets keep the stateful slot order
# ---------------------------------------------------------------------------

def test_run_many_duplicate_targets_fall_back_to_serial(engine):
    """Specs sharing a relay must not race its token bucket / RNG: they
    run in ordered waves, equal to walking them one after the other."""
    params = FlashFlowParams()
    auth = quick_team(seed=5)
    relay = Relay.with_capacity("shared", mbit(100), seed=50)
    specs = [
        _spec(relay, auth.team, mbit(300), params, seed=s,
              enforce_admission=False)
        for s in (1, 2)
    ]
    outcomes = engine.run_many(specs)
    # Identical to running them one after the other on a twin relay.
    twin = Relay.with_capacity("shared", mbit(100), seed=50)
    expected = [
        stateful_run(engine, _spec(twin, auth.team, mbit(300), params,
                                   seed=s, enforce_admission=False))
        for s in (1, 2)
    ]
    assert [o.estimate for o in outcomes] == [o.estimate for o in expected]


# ---------------------------------------------------------------------------
# Analytic fast path
# ---------------------------------------------------------------------------

def test_analytic_estimate_is_supply_limited_truth(engine):
    params = FlashFlowParams()
    auth = quick_team(seed=6)
    relay = Relay.with_capacity("r", mbit(100), seed=60)
    assignments = allocate_capacity(auth.team, mbit(900))
    supply = total_allocated(assignments) / params.multiplier
    # Plenty of supply: the estimate is the (wobbled) true capacity.
    assert analytic_estimate(engine, relay, assignments, params, wobble=0.97) \
        == pytest.approx(mbit(100) * 0.97)
    # Starved supply: the estimate is supply-limited.
    small = allocate_capacity(auth.team, mbit(90))
    assert analytic_estimate(engine, relay, small, params, wobble=1.0) \
        == pytest.approx(total_allocated(small) / params.multiplier)
    assert supply > 0


# ---------------------------------------------------------------------------
# Satellite bugfixes
# ---------------------------------------------------------------------------

def test_campaign_slot_seconds_follows_params():
    """CampaignResult.slot_seconds comes from the params actually used."""
    params = FlashFlowParams(slot_seconds=10)
    network = synthesize_network(n_relays=5, seed=80)
    auth = quick_team(seed=81, params=params)
    result = measure_network(network, auth, full_simulation=False)
    assert result.slot_seconds == 10
    assert result.seconds_elapsed == result.slots_elapsed * 10


def test_failed_verification_reports_unified_cell_counter():
    """Failure and success paths report the verifier's own counter."""
    params = FlashFlowParams()
    auth = quick_team(seed=7)
    forger = Relay.with_capacity(
        "forger", mbit(500), behavior=ForgingRelayBehavior(seed=1), seed=70
    )
    outcome = run_measurement(
        forger,
        allocate_capacity(auth.team, params.allocation_factor * mbit(500)),
        params,
        seed=71,
    )
    assert outcome.failed
    # The failing cell itself was checked, so the counter includes it.
    assert outcome.cells_checked >= 1


# ---------------------------------------------------------------------------
# Session integration: the engine drives a verifiable transcript
# ---------------------------------------------------------------------------

def test_session_run_measurement_produces_verifiable_transcript():
    params = FlashFlowParams(slot_seconds=5)
    auth = quick_team(seed=8, params=params)
    relay = Relay.with_capacity("r", mbit(150), seed=90)
    assignments = allocate_capacity(auth.team, mbit(400))
    measurer_ids = {m.name: SigningIdentity(m.name) for m in auth.team}
    session = MeasurementSession(
        bwauth=SigningIdentity("bwauth0"),
        measurer_identities=measurer_ids,
        relay_identity=SigningIdentity("r"),
    )
    spec = MeasurementSpec(
        target=relay, assignments=assignments, params=params, seed=91
    )
    outcome = session.run_measurement(spec)
    session.verify_transcript()

    assert not outcome.failed
    # One report per participating measurer per second, plus the relay's.
    n_active = sum(1 for a in assignments if a.participates)
    reports = session.transcript.of_type(MessageType.MEASURER_REPORT)
    assert len(reports) == n_active * params.slot_seconds
    relay_reports = session.transcript.of_type(MessageType.RELAY_REPORT)
    assert len(relay_reports) == params.slot_seconds
    # Transcripted per-second measurer bytes sum to the outcome's x_j.
    by_second = {}
    for message in reports:
        by_second.setdefault(message.payload["second"], 0.0)
        by_second[message.payload["second"]] += message.payload["bytes"]
    for second, x_bits in enumerate(outcome.per_second_measurement):
        assert by_second[second] * 8.0 == pytest.approx(x_bits)
    # And the engine outcome matches an un-transcripted run bit-for-bit.
    twin = Relay.with_capacity("r", mbit(150), seed=90)
    plain = stateful_run(
        MeasurementEngine(),
        MeasurementSpec(
            target=twin, assignments=assignments, params=params, seed=91
        )
    )
    assert plain.estimate == outcome.estimate


def test_session_refusal_short_circuits_engine():
    params = FlashFlowParams()
    auth = quick_team(seed=9, params=params)
    relay = Relay.with_capacity("r", mbit(100), seed=95)
    relay.accept_measurement("bwauth0", 0)  # already measured this period
    session = MeasurementSession(
        bwauth=SigningIdentity("bwauth0"),
        measurer_identities={m.name: SigningIdentity(m.name) for m in auth.team},
        relay_identity=SigningIdentity("r"),
    )
    outcome = session.run_measurement(
        MeasurementSpec(
            target=relay,
            assignments=allocate_capacity(auth.team, mbit(300)),
            params=params,
            seed=96,
        )
    )
    assert outcome.failed
    assert "already measured" in outcome.failure_reason
    session.verify_transcript()


class _ReportRecorder:
    """A session stand-in: records ``record_second`` calls, signs nothing."""

    def __init__(self):
        self.seconds = []

    def record_second(self, second, measurer_bytes, relay_reported_bytes):
        self.seconds.append(
            (second, list(measurer_bytes.items()), relay_reported_bytes)
        )


@pytest.mark.parametrize("forger", [False, True], ids=["honest", "forger"])
def test_session_reports_match_stateful_reference(forger):
    """The kernel replays a session's per-second reports after the walk:
    each measurer credited its part of the offered supply times the
    second's received share, and the relay's background claim, ``==``
    what the stateful walk records second by second. A forger's reports
    stop at the second its forged echo was caught."""
    params = FlashFlowParams(slot_seconds=12)
    team = quick_team(seed=8, params=params).team

    def run(runner):
        behavior = (
            ForgingRelayBehavior(forge_fraction=0.1, seed=4) if forger else None
        )
        relay = Relay.with_capacity(
            "r", mbit(900), seed=90, behavior=behavior
        )
        recorder = _ReportRecorder()
        outcome = runner(
            MeasurementSpec(
                target=relay,
                assignments=allocate_capacity(team, mbit(2400)),
                params=params,
                seed=91,
                background_demand=mbit(40),
                enforce_admission=False,
                session=recorder,
            )
        )
        return outcome, recorder.seconds

    engine = MeasurementEngine()
    reference_outcome, reference = run(lambda spec: stateful_run(engine, spec))
    outcome, seconds = run(engine.run)
    assert outcome == reference_outcome
    assert seconds == reference
    assert outcome.failed == forger
    assert len(seconds) == outcome.duration > 1
    # Three measurers share each second's received bytes.
    assert all(len(parts) == 3 for _, parts, _ in seconds)


# ---------------------------------------------------------------------------
# Circuit keys
# ---------------------------------------------------------------------------

def _counting(monkeypatch, modules):
    """Count ``establish_circuit_key`` calls made through ``modules``."""
    calls = []
    real = engine_module.establish_circuit_key

    def counting():
        calls.append(1)
        return real()

    for module in modules:
        monkeypatch.setattr(module, "establish_circuit_key", counting)
    return calls


def test_engines_share_one_circuit_key_per_process(monkeypatch):
    """No estimate depends on the key bits, so every engine hands out the
    process's one key: a process running many campaigns pays for one
    2048-bit DH handshake, not one per campaign."""
    assert MeasurementEngine()._verifier_key() is MeasurementEngine()._verifier_key()
    monkeypatch.setattr(engine_module, "_process_key", None)
    handshakes = _counting(monkeypatch, [engine_module])
    for seed in (1, 2, 3):
        report = Campaign(
            get_scenario("fig06-accuracy", n_relays=4, seed=seed),
            ExecutionConfig(),
        ).run()
        assert report.cells_checked > 0
    assert len(handshakes) == 1


def test_concurrent_first_use_runs_one_handshake(monkeypatch):
    """Engines on many threads asking for the key at once all get the
    same object from a single handshake (the lock makes the first use a
    one-time initialisation, not a check-then-act race)."""
    monkeypatch.setattr(engine_module, "_process_key", None)
    handshakes = _counting(monkeypatch, [engine_module])
    keys = []
    barrier = threading.Barrier(8)

    def first_use():
        barrier.wait(timeout=10)
        keys.append(MeasurementEngine()._verifier_key())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(keys) == 8
    assert all(key is keys[0] for key in keys)
    assert len(handshakes) == 1


@pytest.mark.parametrize("field,kwargs", [
    # On fig06-accuracy (seed 3) these moved the median estimate/truth
    # from 0.954 to 0.820 (every supply draw pinned at the 0.3 floor),
    # 0.811 (every env factor at target_env_min) and 0.477 (inverted
    # bounds pin it at target_env_max), without an error.
    ("supply_noise_std", {"supply_noise_std": float("nan")}),
    ("target_env_std", {"target_env_std": float("nan")}),
    ("target_env_min", {"target_env_min": 2.0, "target_env_max": 0.5}),
    ("supply_noise_std", {"supply_noise_std": -0.5}),
    ("target_env_std", {"target_env_std": -0.01}),
    ("target_env_mean", {"target_env_mean": float("inf")}),
    ("target_env_max", {"target_env_max": float("nan")}),
    ("target_env_min", {"target_env_min": 0.0}),
    ("target_env_min", {"target_env_min": True}),
    ("supply_noise_std", {"supply_noise_std": "0.03"}),
])
def test_measurement_noise_rejects_values_that_skew_estimates(field, kwargs):
    with pytest.raises(ConfigurationError, match=field):
        MeasurementNoise(**kwargs)


def test_measurement_noise_accepts_boundary_values():
    MeasurementNoise()
    assert SHADOW_MEASUREMENT_NOISE.target_env_min == 0.60
    noise = MeasurementNoise(
        target_env_mean=1, target_env_std=0, target_env_min=0.9,
        target_env_max=0.9, supply_noise_std=0.0,
    )
    assert noise.target_env_min == noise.target_env_max
