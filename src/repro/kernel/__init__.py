"""The vectorized measurement kernel (compile -> supply).

This package is the execution layer beneath
:meth:`repro.core.engine.MeasurementEngine.run_many`:

- :mod:`repro.kernel.compile` lowers a measurement spec plus the
  engine's prepared inputs into a
  :class:`~repro.kernel.compile.CompiledMeasurement`: the per-second
  arrays the walk reads (supply, jitter x environment, background)
  plus the process's live circuit key, with every pre-walk RNG draw
  made in stateful order;
- :mod:`repro.kernel.supply` executes compiled measurements as
  vectorized numpy array walks, bit-identical to the stateful
  :meth:`Relay.measured_second` path;
- :mod:`repro.kernel.backends` holds :class:`VectorBackend`, the one
  executor :func:`run_specs` hands each round's compiled batch to.

Relay behaviours compile through
:meth:`repro.tornet.relay.RelayBehavior.kernel_program`: the honest
default and the four common §5 attacks (traffic liar, ratio cheater,
forger, selective capacity) all lower into the array walk. Specs the
kernel cannot compile -- genuinely stateful custom behaviours (e.g. the
cross-relay :class:`repro.attacks.CollusionBehavior`) and transcript
sessions -- fall back to the engine's stateful ``run`` path, preserving
exact semantics for every spec.

:mod:`repro.kernel.analytic` lowers whole rounds of the engine's
closed-form ``analytic_estimate`` (the ``full_simulation=False``
campaign path) into one array walk.
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
    is_compilable,
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
    "is_compilable",
    "run_analytic_round",
    "run_specs",
]


def run_specs(engine, specs: Sequence):
    """Run independent measurement specs through the kernel.

    Compiles every compilable spec (in spec order -- compilation consumes
    relay RNG/admission state exactly where the stateful path would),
    executes the compiled batch as one vectorized array walk, runs the
    fallback specs on the engine's stateful path, settles relay state
    deltas, and returns outcomes in spec order.
    """
    specs = list(specs)
    tracer = get_tracer()
    registry = get_registry()

    results = [None] * len(specs)
    fallback_indices: list[int] = []

    compiled: list[CompiledMeasurement] = []
    with tracer.span("round.compile", n_specs=len(specs)):
        for index, spec in enumerate(specs):
            cm = compile_measurement(engine, spec, index=index)
            if cm is None:
                fallback_indices.append(index)
            else:
                compiled.append(cm)
    if fallback_indices:
        with tracer.span("round.fallback", n_specs=len(fallback_indices)):
            for index in fallback_indices:
                results[index] = engine.run(specs[index])
    with tracer.span("round.execute", n_compiled=len(compiled)):
        kernel_results = VectorBackend().run(compiled) if compiled else []

    registry.counter("kernel.specs.compiled").inc(
        len(specs) - len(fallback_indices)
    )
    if fallback_indices:
        registry.counter("kernel.specs.fallback").inc(len(fallback_indices))

    with tracer.span("round.settle", n_results=len(kernel_results)):
        for result in kernel_results:
            spec = specs[result.index]
            if result.total_bytes.size:
                spec.target.settle_measured_walk(
                    result.total_bytes.tolist(), result.final_bucket_tokens
                )
                # The stateful walk notes every second's measurement
                # traffic to the behaviour; only the last note survives
                # as state, so settling it restores exact parity (the
                # ratio cheater's claim ledger, notably).
                spec.target.behavior.note_measurement(
                    float(result.measurement[-1]) / 8.0, spec.target
                )
            if result.behavior_rng_state is not None:
                # Forgers: the verification replay consumed a copy of
                # the behaviour's RNG; write the advanced state
                # (and any detected forgeries) back onto the live object.
                spec.target.behavior.settle_verify_replay(
                    result.behavior_rng_state, result.cells_forged
                )
            results[result.index] = result.to_outcome()
    return results
