"""Lowering measurements into compiled form.

:func:`compile_measurement` turns a :class:`MeasurementSpec` plus the
engine's prepared inputs (:meth:`MeasurementEngine.prepare_inputs`) into
a :class:`CompiledMeasurement`: the arrays one measurement's per-second
walk reads, plus the process's live circuit key. Compilation performs
**every RNG draw** the stateful reference walk makes before its first
second, in the same order on the same forked streams:

1. the environment factor and per-assignment path qualities (inside
   ``prepare_inputs``),
2. the per-second supply-noise draws on the measurement stream, which
   compile folds with each assignment's cap series into the per-second
   supply total,
3. the target relay's per-second jitter draws
   (:meth:`repro.tornet.relay.Relay.draw_noise_series` -- the relay's
   stream is shared across its measurements, so it must advance here).

The only draws left to the walk are the echo-cell verification replay's
(sample counts, and forge decisions for forgers): they depend on the
walk's own measurement series. Everything else -- the capacity/ratio
walk -- is pure computation over the compiled arrays, so a whole round
walks as one batch with bit-identical results. The relay's stateful side
effects (token bucket level, observed-bandwidth history) are settled
back onto the live relay by the caller from the walk's results.

Relay behaviours compile through the
:meth:`repro.tornet.relay.RelayBehavior.kernel_program` protocol: the
honest default, the four common §5 attacks (traffic liar, ratio cheater,
forger, selective capacity) and the colluding clique each describe their
walk as a :class:`repro.tornet.relay.BehaviorProgram`. A behaviour that
returns ``None`` -- a custom subclass that does not opt in -- cannot be
measured: :func:`program_of` raises a
:class:`~repro.errors.ConfigurationError` naming the relay and the
behaviour class. A spec carrying a transcript session also keeps each
assignment's per-second supply part, from which the caller replays the
session's signed reports after the walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import (
    MeasurementEngine,
    MeasurementOutcome,
    MeasurementSpec,
    assignment_caps,
)
from repro.errors import ConfigurationError
from repro.rng import seed_from
from repro.tornet.columnar import noise_row
from repro.tornet.relay import HONEST_PROGRAM, BehaviorProgram, Relay
from repro.tornet.relaycrypto import CircuitKey


@dataclass
class CompiledMeasurement:
    """One measurement, lowered to the arrays its walk reads.

    ``supply`` (what the measurers push each second), ``noise_env``
    (relay jitter x environment factor), ``background`` and the
    token-bucket snapshot fully determine the behaviour-program walk;
    ``key`` and the two verify seeds drive the echo-cell replay that
    follows it.
    """

    index: int
    fingerprint: str
    duration: int
    #: Normal-traffic ratio r for this measurement's params.
    ratio: float
    #: Measurement supply per second (bit/s), shape [duration]: each
    #: assignment's cap times its supply-noise draw, summed in assignment
    #: order exactly like the engine's ``supply_total``.
    supply: np.ndarray
    #: Pre-bucket forwarding capacity: min(CPU, schedulers, link), bit/s.
    base_capacity: float
    #: Relay jitter draw x environment factor, shape [duration].
    noise_env: np.ndarray
    #: (tokens, rate, burst) snapshot in bytes, or None when unlimited.
    bucket: tuple[float, float, float] | None
    #: Background (client) demand per second, bit/s, shape [duration].
    background: np.ndarray
    total_allocated: float
    #: Echo-cell check probability; None disables verification replay.
    p_check: float | None
    #: Seed of the measurement's ``verify-*`` RNG stream.
    verify_seed: int
    #: Seed of the ``verify-payload-*`` stream the sampled-cell payloads
    #: are drawn from (the stateful verifier's ``payload_rng`` fork).
    payload_seed: int
    #: The process's shared circuit key for the verification replay
    #: (``engine._verifier_key()``; its keystream cache stays warm across
    #: every measurement in the process); None when verification is off.
    key: CircuitKey | None
    #: Early result (admission refusal); skips execution entirely.
    outcome: MeasurementOutcome | None = None
    #: The behaviour's closed-form walk (honest defaults for honest
    #: relays; lane scalars for compiled attacks).
    program: BehaviorProgram = HONEST_PROGRAM
    #: ``random.Random`` state of the behaviour's own stream at slot
    #: start (forgers only, verify on): the verification replay advances
    #: a copy and the caller settles it back via
    #: :meth:`RelayBehavior.settle_verify_replay`.
    behavior_rng_state: tuple | None = None
    #: (measurer name, per-second supply part) per active assignment, in
    #: assignment order; kept only for specs with a transcript session.
    #: The parts sum, in this order, to ``supply``.
    session_parts: list[tuple[str, np.ndarray]] | None = None


def program_of(relay: Relay) -> BehaviorProgram:
    """The kernel program of ``relay``'s behaviour.

    Raises :class:`ConfigurationError` naming the relay and the
    behaviour class when the behaviour publishes none (a custom
    :class:`~repro.tornet.relay.RelayBehavior` subclass that does not
    override ``kernel_program``).
    """
    program = relay.behavior.kernel_program()
    if program is None:
        raise ConfigurationError(
            f"relay {relay.fingerprint!r}: behaviour "
            f"{type(relay.behavior).__name__} publishes no kernel program; "
            "override RelayBehavior.kernel_program to describe its walk "
            "as a BehaviorProgram"
        )
    return program


def compile_measurement(
    engine: MeasurementEngine,
    spec: MeasurementSpec,
    index: int = 0,
) -> CompiledMeasurement:
    """Lower ``spec`` to a :class:`CompiledMeasurement`.

    Must be called in the order the specs would run one after another:
    it consumes the measurement RNG stream, the relay's jitter stream,
    the relay's admission state, and (through the behaviour's program)
    its ledger.
    """
    inputs = engine.prepare_inputs(spec)
    params, duration, target = inputs.params, inputs.duration, spec.target

    if inputs.outcome is not None:
        return CompiledMeasurement(
            index=index,
            fingerprint=target.fingerprint,
            duration=duration,
            ratio=params.ratio,
            supply=np.zeros(duration),
            base_capacity=0.0,
            noise_env=np.zeros(duration),
            bucket=None,
            background=np.zeros(duration),
            total_allocated=inputs.total_allocated,
            p_check=None,
            verify_seed=0,
            payload_seed=0,
            key=None,
            outcome=inputs.outcome,
        )

    # Supply noise, drawn where the stateful walk draws it: straight
    # after prepare on the measurement stream, second-major and
    # assignment-minor, then summed per second in assignment order.
    entries = inputs.entries
    n_draws = duration * len(entries)
    gauss, noise_std = inputs.rng.gauss, inputs.noise.supply_noise_std
    draws = np.fromiter(
        (max(0.3, gauss(1.0, noise_std)) for _ in range(n_draws)),
        dtype=np.float64,
        count=n_draws,
    ).reshape(duration, len(entries))
    supply = np.zeros(duration)
    session_parts = [] if spec.session is not None else None
    for column, (a, path, quality) in enumerate(entries):
        caps = assignment_caps(
            path,
            a.measurer.host.kernel,
            inputs.target_kernel,
            duration,
            a.allocated,
            a.measurer.host.link_capacity,
            inputs.socket_share,
            quality,
            inputs.efficiency,
        )
        part = np.asarray(caps, dtype=np.float64) * draws[:, column]
        supply += part
        if session_parts is not None:
            session_parts.append((a.measurer.name, part))

    # Relay-side jitter from the relay's own stream, folded with the
    # environment factor exactly as the stateful walk does (noise *
    # external_factor, then capacity *= that product).
    noise_env = noise_row(target, duration) * inputs.env

    base_capacity = target.forwarding_capacity(
        n_measurement_sockets=params.n_sockets,
        n_background_sockets=20,
        being_measured=True,
    )
    bucket = target.bucket.state() if target.bucket is not None else None

    bg = spec.background_demand
    if callable(bg):
        background = np.array(
            [float(bg(second)) for second in range(duration)], dtype=np.float64
        )
    else:
        background = np.full(duration, float(bg), dtype=np.float64)

    if spec.verify:
        p_check: float | None = params.p_check
        key = engine._verifier_key()
    else:
        p_check = None
        key = None

    # The behaviour's closed-form walk; fetched after prepare_inputs so
    # slot-constant decisions (begin_measurement's selective roll) have
    # already landed in base_capacity, and at compile time so a ledger
    # reads its peers as they stand now. Forgers also hand over their RNG
    # state: the verification replay consumes forge decisions from a copy.
    program = program_of(target)
    behavior_rng_state = (
        target.behavior._rng.getstate()
        if program.forge_fraction is not None and spec.verify
        else None
    )

    return CompiledMeasurement(
        index=index,
        fingerprint=target.fingerprint,
        duration=duration,
        ratio=params.ratio,
        supply=supply,
        base_capacity=base_capacity,
        noise_env=noise_env,
        bucket=bucket,
        background=background,
        total_allocated=inputs.total_allocated,
        p_check=p_check,
        verify_seed=seed_from(spec.seed, f"verify-{target.fingerprint}"),
        payload_seed=seed_from(
            spec.seed, f"verify-payload-{target.fingerprint}"
        ),
        key=key,
        program=program,
        behavior_rng_state=behavior_rng_state,
        session_parts=session_parts,
    )
