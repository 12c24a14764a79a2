"""The vectorized measurement kernel (compile -> supply).

This package is the one execution path beneath
:meth:`repro.core.engine.MeasurementEngine.run_many` (and ``run``, a
batch of one):

- :mod:`repro.kernel.compile` lowers a measurement spec plus the
  engine's prepared inputs into a
  :class:`~repro.kernel.compile.CompiledMeasurement`: the per-second
  arrays the walk reads (supply, jitter x environment, background)
  plus the process's live circuit key, with every pre-walk RNG draw
  made in stateful order;
- :mod:`repro.kernel.supply` executes compiled measurements as
  vectorized numpy array walks, bit-identical to the stateful
  per-second reference walk kept in ``tests/oracles/stateful_engine.py``;
- :mod:`repro.kernel.backends` holds :class:`VectorBackend`, the one
  executor :func:`run_specs` hands each wave's compiled batch to.

Relay behaviours compile through
:meth:`repro.tornet.relay.RelayBehavior.kernel_program`: the honest
default, the four common §5 attacks (traffic liar, ratio cheater,
forger, selective capacity) and the cross-relay colluding clique
(:class:`repro.attacks.CollusionBehavior`, whose ledger offset is read
at compile time) all lower into the array walk. A custom behaviour that
publishes no program is refused with a
:class:`~repro.errors.ConfigurationError`. Transcript sessions replay
their signed per-second reports from the walk's series.

:mod:`repro.kernel.analytic` lowers whole rounds of closed-form
analytic estimates (the ``full_simulation=False`` campaign path) into
one array walk.
"""

from __future__ import annotations

from typing import Sequence

from repro.kernel.analytic import (
    AnalyticRoundResult,
    CompiledAnalyticRound,
    compile_analytic_round,
    execute_analytic_round,
    run_analytic_round,
)
from repro.kernel.backends import KernelBackend, VectorBackend
from repro.kernel.compile import (
    CompiledMeasurement,
    compile_measurement,
    program_of,
)
from repro.kernel.supply import KernelResult, execute_batch, execute_compiled
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = [
    "AnalyticRoundResult",
    "CompiledAnalyticRound",
    "CompiledMeasurement",
    "KernelBackend",
    "KernelResult",
    "compile_analytic_round",
    "compile_measurement",
    "execute_analytic_round",
    "execute_batch",
    "execute_compiled",
    "run_analytic_round",
    "run_specs",
]


def _waves(specs: Sequence) -> list[list[int]]:
    """Spec indices per wave, each wave in spec order.

    A spec goes one wave after the latest earlier spec that shares its
    target relay or its behaviour's ledger, so state they share advances
    in spec order; a batch with no shared state is one wave.
    """
    last_wave: dict[int, int] = {}
    waves: list[list[int]] = []
    for index, spec in enumerate(specs):
        keys = [id(spec.target)]
        ledger = spec.target.behavior.ledger
        if ledger is not None:
            keys.append(id(ledger))
        wave = 1 + max(last_wave.get(key, -1) for key in keys)
        for key in keys:
            last_wave[key] = wave
        if wave == len(waves):
            waves.append([])
        waves[wave].append(index)
    return waves


def _record_session(session, cm: CompiledMeasurement, result) -> None:
    """Replay the walk's signed per-second reports into ``session``.

    Each measurer is credited its supply part times the second's
    received share (measurement bytes over the offered supply, or 0 when
    nothing was offered), and the relay reports its background claim.
    A verification failure at second s truncated the series, so seconds
    0..s are recorded.
    """
    supply = cm.supply.tolist()
    parts = [(name, part.tolist()) for name, part in cm.session_parts]
    reported = result.background_reported.tolist()
    for second, x_bits in enumerate(result.measurement.tolist()):
        supply_total = supply[second]
        share = (x_bits / 8.0) / supply_total if supply_total > 0 else 0.0
        session.record_second(
            second,
            {name: part[second] * share for name, part in parts},
            reported[second] / 8.0,
        )


def _settle(spec, cm: CompiledMeasurement, result: KernelResult) -> None:
    """Apply one walk's effects to its relay, behaviour and session."""
    target = spec.target
    if result.total_bytes.size:
        target.settle_measured_walk(
            result.total_bytes.tolist(), result.final_bucket_tokens
        )
        # The stateful walk notes every second's measurement traffic to
        # the behaviour; only the last note survives as state, so
        # settling it restores exact parity (the ratio cheater's claim,
        # a colluder's ledger entry).
        target.behavior.note_measurement(
            float(result.measurement[-1]) / 8.0, target
        )
    if result.behavior_rng_state is not None:
        # Forgers: the verification replay consumed a copy of the
        # behaviour's RNG; write the advanced state (and any detected
        # forgeries) back onto the live object.
        target.behavior.settle_verify_replay(
            result.behavior_rng_state, result.cells_forged
        )
    if cm.session_parts is not None:
        _record_session(spec.session, cm, result)


def run_specs(engine, specs: Sequence):
    """Run measurement specs through the kernel; outcomes in spec order.

    Every relay's behaviour must publish a kernel program
    (:func:`~repro.kernel.compile.program_of`); otherwise this raises
    before any spec compiles, so no admission, RNG or bucket state is
    consumed. The batch then runs in ordered waves (:func:`_waves`).
    Each wave compiles in spec order (compilation consumes relay
    RNG/admission state exactly where the stateful walk would), executes
    as one vectorized array walk, and settles relay, behaviour and
    session state before the next wave compiles.
    """
    specs = list(specs)
    for spec in specs:
        program_of(spec.target)
    tracer = get_tracer()
    compiled_counter = get_registry().counter("kernel.specs.compiled")

    results = [None] * len(specs)
    for wave in _waves(specs):
        with tracer.span("round.compile", n_specs=len(wave)):
            compiled = [
                compile_measurement(engine, specs[index], index=index)
                for index in wave
            ]
        with tracer.span("round.execute", n_compiled=len(compiled)):
            kernel_results = VectorBackend().run(compiled)
        compiled_counter.inc(len(compiled))
        with tracer.span("round.settle", n_results=len(kernel_results)):
            for cm, result in zip(compiled, kernel_results):
                _settle(specs[result.index], cm, result)
                results[result.index] = result.to_outcome()
    return results
