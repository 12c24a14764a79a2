"""The executor for compiled measurements.

:class:`VectorBackend` takes a list of
:class:`repro.kernel.compile.CompiledMeasurement` and returns one
:class:`repro.kernel.supply.KernelResult` per input, in input order, by
running the whole batch as one vectorized numpy array walk
(:func:`repro.kernel.supply.execute_batch`). It is the only way a
measurement batch runs: :func:`repro.kernel.run_specs` calls it once per
round. The class pair exists because ``bench/layers.py`` times the
``run`` method of every :class:`KernelBackend` subclass as its
``kernel.execute`` layer.
"""

from __future__ import annotations

from typing import Sequence

from repro.kernel.compile import CompiledMeasurement
from repro.kernel.supply import KernelResult, execute_batch


class KernelBackend:
    """Base class: executes compiled measurements, returns results in order."""

    def run(self, compiled: Sequence[CompiledMeasurement]) -> list[KernelResult]:
        raise NotImplementedError


class VectorBackend(KernelBackend):
    """The whole batch as one vectorized array walk."""

    def run(self, compiled):
        return execute_batch(compiled)
