"""Pluggable execution backends for compiled measurements.

A backend takes a list of picklable
:class:`repro.kernel.compile.CompiledMeasurement` and returns one
:class:`repro.kernel.supply.KernelResult` per input, in input order.
Because compiled execution is pure, **every backend produces bit-
identical results**; backends differ only in how the work is scheduled:

- ``serial``  -- one measurement at a time, in the calling thread (the
  baseline granularity: each measurement is its own array walk; the
  reference the test suites compare against).
- ``process`` -- a persistent ``ProcessPoolExecutor`` over chunks of the
  picklable compiled measurements; each worker executes its chunk as one
  vectorized batch walk, shipped through shared memory
  (:mod:`repro.kernel.shm`). Workers recompute the heavy pure half (TCP
  ramps, the array walk, verification crypto) outside the parent's GIL.
- ``vector``  -- the whole batch as one vectorized numpy array walk
  (:func:`repro.kernel.supply.execute_batch`); the fastest in-process
  option and the ``auto`` default.

Selection order: explicit ``backend=`` argument, then
``FlashFlowParams.kernel_backend``, then the ``FLASHFLOW_KERNEL_BACKEND``
environment variable, then ``auto``.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.errors import ConfigurationError
from repro.kernel.compile import CompiledMeasurement
from repro.kernel.shm import (
    execute_batch_shm,
    pack_chunk,
    shm_enabled,
    unpack_chunk,
)
from repro.kernel.supply import KernelResult, execute_batch, execute_compiled
from repro.obs.metrics import get_registry, warn_once
from repro.obs.trace import get_tracer
from repro.workers import workers_from_env

#: Environment variable consulted when params leave the backend unset.
BACKEND_ENV_VAR = "FLASHFLOW_KERNEL_BACKEND"

#: Fewest measurements worth batching into one chunk: below this the
#: per-chunk dispatch/pickle overhead outweighs the vectorization win.
MIN_CHUNK = 8


def _note_pool_rebuild() -> None:
    """Count a broken-pool rebuild and surface it once per process.

    Pool rebuilds were historically invisible (the retry succeeds and
    the round completes normally); the counter and one-shot warning make
    the degradation -- a worker died, lost chunks re-executed -- show up
    in metrics output and on stderr.
    """
    get_registry().counter("kernel.pool.rebuilds").inc()
    warn_once(
        "pool-rebuild",
        "a kernel worker process died mid-round; the pool was rebuilt "
        "and the lost chunks re-executed (results are unaffected -- "
        "compiled measurements are pure)",
    )


def _chunks(
    compiled: Sequence[CompiledMeasurement], workers: int
) -> list[list[CompiledMeasurement]]:
    """Split a batch into contiguous chunks for a ``workers``-wide pool.

    With several workers, ~4 chunks per worker balances load against
    vectorization width; a single worker gets the whole batch as one
    chunk (splitting would only add dispatch round trips). Chunks never
    shrink below :data:`MIN_CHUNK`. Chunk boundaries never affect
    results (each measurement's walk is independent), only scheduling.
    """
    n_chunks = workers * 4 if workers > 1 else 1
    target = max(MIN_CHUNK, -(-len(compiled) // n_chunks))
    return [list(compiled[i : i + target]) for i in range(0, len(compiled), target)]


class KernelBackend:
    """Base class: executes compiled measurements, returns results in order."""

    name = "base"

    def run(
        self,
        compiled: Sequence[CompiledMeasurement],
        max_workers: int | None = None,
    ) -> list[KernelResult]:
        raise NotImplementedError


class SerialBackend(KernelBackend):
    """One measurement at a time in the calling thread."""

    name = "serial"

    def run(self, compiled, max_workers=None):
        return [execute_compiled(cm) for cm in compiled]


class VectorBackend(KernelBackend):
    """The whole batch as one vectorized array walk (the auto default)."""

    name = "vector"

    def run(self, compiled, max_workers=None):
        return execute_batch(compiled)


class ProcessBackend(KernelBackend):
    """A persistent process pool over per-measurement walks.

    The pool is created lazily and kept for the life of the program
    (campaigns call ``run_many`` once per round; respawning workers each
    round would dominate the round's wall time). Results are
    deterministic regardless of worker count: each compiled measurement
    executes purely and ``map`` restores input order.
    """

    name = "process"

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        atexit.register(self.shutdown)

    def _get_pool(self, workers: int) -> ProcessPoolExecutor:
        if self._pool is None or self._pool_workers != workers:
            self.shutdown()
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_workers = workers
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_workers = 0

    def _workers(self, max_workers: int | None) -> int:
        # The walks are CPU-bound: more worker processes than cores only
        # adds interpreter memory and context switches, so even an
        # explicit request -- max_workers argument or the
        # FLASHFLOW_WORKERS override -- is clamped to the core count.
        cpus = os.cpu_count() or 1
        requested = max_workers if max_workers is not None else workers_from_env()
        return max(1, min(requested or cpus, cpus, 32))

    def run(self, compiled, max_workers=None):
        workers = self._workers(max_workers)
        if len(compiled) <= 1:
            return execute_batch(compiled)
        chunks = _chunks(compiled, workers)
        if shm_enabled():
            packed = []
            for chunk in chunks:
                payload, handle = pack_chunk(chunk)
                if payload is None:
                    # Shared memory unavailable/exhausted: fall back to
                    # plain pickling for the whole batch.
                    for _, stale in packed:
                        stale.dispose()
                    packed = None
                    break
                packed.append((payload, handle))
            if packed is not None:
                return self._run_shm(packed, workers)
        try:
            chunk_results = list(
                self._get_pool(workers).map(execute_batch, chunks)
            )
        except BrokenProcessPool:
            # A worker died (OOM kill, signal). The executor is
            # permanently broken; rebuild it once and retry -- compiled
            # measurements are pure, so re-execution is safe.
            _note_pool_rebuild()
            self.shutdown()
            chunk_results = list(
                self._get_pool(workers).map(execute_batch, chunks)
            )
        return [result for chunk in chunk_results for result in chunk]

    def _run_shm(self, packed, workers):
        """Execute pre-packed shm chunks, harvesting in input order.

        Blocks are unlinked per chunk right after harvest, so a
        broken-pool rebuild can resubmit every not-yet-harvested payload
        unchanged (the single-retry contract of the pickling path).
        """
        pool = self._get_pool(workers)
        tracer = get_tracer()
        futures = [pool.submit(execute_batch_shm, payload) for payload, _ in packed]
        results: list[KernelResult] = []
        retried = False
        index = 0
        try:
            while index < len(packed):
                try:
                    # Parent-side chunk span (worker processes see the
                    # null tracer): submit-to-harvest wall time.
                    with tracer.span(
                        "kernel.chunk",
                        n_compiled=len(packed[index][1].layout),
                        transport="shm",
                    ):
                        light = futures[index].result()
                except BrokenProcessPool:
                    if retried:
                        raise
                    retried = True
                    _note_pool_rebuild()
                    self.shutdown()
                    pool = self._get_pool(workers)
                    for j in range(index, len(packed)):
                        futures[j] = pool.submit(
                            execute_batch_shm, packed[j][0]
                        )
                    continue
                results.extend(unpack_chunk(light, packed[index][1]))
                index += 1
        finally:
            for j in range(index, len(packed)):
                packed[j][1].dispose()
        return results


_BACKENDS: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (name taken from the class)."""
    _BACKENDS[backend.name] = backend
    return backend


register_backend(SerialBackend())
register_backend(VectorBackend())
register_backend(ProcessBackend())


def backend_names() -> list[str]:
    """Registered backend names (for docs/CLIs)."""
    return sorted(_BACKENDS)


def resolve_backend_name(
    explicit: str | None = None, params_backend: str | None = None
) -> str:
    """Apply the selection order; ``auto`` resolves to ``vector``.

    The resolved name is validated against the registry *here*, before
    any campaign work starts: a typo'd ``FLASHFLOW_KERNEL_BACKEND`` (or
    explicit/params name) fails fast with a :class:`ConfigurationError`
    naming the registered backends instead of surfacing as a raw
    ``KeyError`` mid-campaign.
    """
    env = os.environ.get(BACKEND_ENV_VAR)
    if explicit:
        name, source = explicit, "backend argument"
    elif params_backend:
        name, source = params_backend, "FlashFlowParams.kernel_backend"
    elif env:
        name, source = env, f"the {BACKEND_ENV_VAR} environment variable"
    else:
        name, source = "auto", "default"
    if name == "auto":
        return VectorBackend.name
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r} (from {source}); "
            f"known backends: auto, {', '.join(backend_names())}"
        )
    return name


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; raises with the known names listed."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; "
            f"known backends: {', '.join(backend_names())}"
        ) from None
