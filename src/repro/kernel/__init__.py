"""The vectorized measurement kernel (compile -> supply -> backends).

This package is the execution layer beneath
:meth:`repro.core.engine.MeasurementEngine.run_many`:

- :mod:`repro.kernel.compile` lowers a measurement spec plus the
  engine's prepared inputs into a picklable
  :class:`~repro.kernel.compile.CompiledMeasurement` -- all RNG draws
  performed up front in stateful order, everything else pure;
- :mod:`repro.kernel.supply` executes compiled measurements as
  vectorized numpy array walks, bit-identical to the stateful
  :meth:`Relay.measured_second` path;
- :mod:`repro.kernel.backends` schedules the walks on a pluggable
  backend (``serial``/``process``/``vector``).

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
campaign path) into one array walk on every backend except ``serial``.
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
from repro.kernel.backends import (
    BACKEND_ENV_VAR,
    KernelBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.kernel.compile import (
    CompiledAssignment,
    CompiledMeasurement,
    compile_measurement,
    is_compilable,
)
from repro.kernel.supply import KernelResult, execute_batch, execute_compiled
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = [
    "BACKEND_ENV_VAR",
    "AnalyticRoundResult",
    "CompiledAnalyticRound",
    "CompiledAssignment",
    "CompiledMeasurement",
    "KernelBackend",
    "KernelResult",
    "backend_names",
    "compile_analytic_round",
    "compile_measurement",
    "execute_analytic_round",
    "execute_batch",
    "execute_compiled",
    "get_backend",
    "is_compilable",
    "register_backend",
    "resolve_backend_name",
    "run_analytic_round",
    "run_specs",
]


def _predraw_noise(engine, specs) -> dict:
    """Column-wise jitter predraw for the round's compilable specs.

    Returns ``{spec_index: noise_row}`` for every spec whose compile is
    *guaranteed* to reach the relay's ``draw_noise_series`` call --
    eligibility mirrors :func:`compile_measurement` exactly (compilable,
    at least one participating assignment, admission will be granted)
    and each target may appear only once in the batch, so the predrawn
    rows replace the stateful draws one for one and every relay RNG
    stream stays on identical positions.
    """
    from repro.tornet.columnar import noise_row

    target_counts: dict[int, int] = {}
    for spec in specs:
        key = id(spec.target)
        target_counts[key] = target_counts.get(key, 0) + 1

    rows: dict[int, object] = {}
    for index, spec in enumerate(specs):
        if target_counts[id(spec.target)] != 1:
            continue
        if not is_compilable(engine, spec):
            continue
        if not any(a.participates for a in spec.assignments):
            continue
        target = spec.target
        if spec.enforce_admission and (
            (spec.bwauth_id, spec.period_index) in target._measured_in
        ):
            continue
        params = spec.params or engine.params
        if params is None:
            from repro.core.params import FlashFlowParams

            params = FlashFlowParams()
        duration = params.slot_seconds if spec.duration is None else spec.duration
        rows[index] = noise_row(target, duration)
    return rows


def run_specs(
    engine,
    specs: Sequence,
    backend: str | None = None,
    max_workers: int | None = None,
):
    """Run independent measurement specs through the kernel.

    Compiles every compilable spec (in spec order -- compilation consumes
    relay RNG/admission state exactly where the stateful path would),
    executes the compiled batch on the selected backend, runs the
    fallback specs on the engine's stateful path, settles relay state
    deltas, and returns outcomes in spec order.

    The backend is a batch-level choice: the explicit ``backend``
    argument, else the *first* spec's params (``kernel_backend`` on
    later specs in a mixed batch is not consulted), else the engine's
    params, the environment, and finally ``auto``. Results are
    bit-identical for every backend, so this only selects scheduling.
    """
    specs = list(specs)
    first_params = (specs[0].params or engine.params) if specs else None
    name = resolve_backend_name(
        backend,
        first_params.kernel_backend if first_params is not None else None,
    )
    backend_obj = get_backend(name)
    tracer = get_tracer()
    registry = get_registry()

    results = [None] * len(specs)
    fallback_indices: list[int] = []

    # Bulk compile path: relay jitter for the whole round is pre-drawn
    # column-wise up front, so the per-spec compile loop skips the
    # stateful per-relay gauss draws (bit-identical rows, same stream
    # positions -- see repro.tornet.columnar.noise_row).
    predrawn = _predraw_noise(engine, specs) if specs else {}

    compiled: list[CompiledMeasurement] = []
    with tracer.span("round.compile", backend=name, n_specs=len(specs)):
        for index, spec in enumerate(specs):
            cm = compile_measurement(
                engine, spec, index=index, predrawn_noise=predrawn.get(index)
            )
            if cm is None:
                fallback_indices.append(index)
            else:
                compiled.append(cm)
    if fallback_indices:
        with tracer.span("round.fallback", n_specs=len(fallback_indices)):
            for index in fallback_indices:
                results[index] = engine.run(specs[index])
    with tracer.span("round.execute", backend=name, n_compiled=len(compiled)):
        kernel_results = (
            backend_obj.run(compiled, max_workers=max_workers)
            if compiled
            else []
        )

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
                # Forgers: the verification replay consumed the
                # behaviour's RNG in a worker; write the advanced state
                # (and any detected forgeries) back onto the live object.
                spec.target.behavior.settle_verify_replay(
                    result.behavior_rng_state, result.cells_forged
                )
            results[result.index] = result.to_outcome()
    return results
