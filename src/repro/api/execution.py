"""How a campaign is executed, separated from what it measures.

:class:`ExecutionConfig` collects every knob that affects *how* a
campaign runs -- kernel backend, worker count, full vs analytic
simulation, retry budget -- and none that affect *what* is measured
(that is :class:`repro.api.scenario.Scenario`). The same scenario run
under any execution config produces bit-identical estimates; execution
only selects scheduling and the level of per-second detail.

This replaces the loose kwarg tail ``measure_network(...,
full_simulation=, max_rounds=, analytic_error_std=, max_workers=,
backend=)`` with one validated, frozen object that threads cleanly down
to :class:`repro.core.engine.MeasurementEngine` and
:mod:`repro.kernel`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExecutionConfig:
    """Execution policy for one campaign run.

    Every field is semantics-preserving: estimates are bit-identical
    for any ``backend``/``max_workers`` choice, and ``full_simulation``
    switches between the per-second traffic walk and the engine's
    analytic accept/retry model (used by scheduling-efficiency studies
    where only slot accounting matters).
    """

    #: Kernel execution backend (:mod:`repro.kernel.backends`):
    #: ``serial``, ``process``, ``vector``, ``auto``, or any backend
    #: registered via :func:`repro.kernel.register_backend`. ``None``
    #: defers to params/environment, then ``auto``.
    backend: str | None = None
    #: Shadow flow-simulator backend (:mod:`repro.shadow.flows`) for
    #: workloads that run the flow-level simulator (the §7 comparison
    #: pipeline; see ``repro.shadow.experiment.compare_systems``).
    #: Bit-identical by construction; measurement-only campaigns carry
    #: but never consult it. ``None`` defers to the
    #: ``FLASHFLOW_SHADOW_BACKEND`` environment variable, then ``auto``.
    shadow_backend: str | None = None
    #: Engine worker-count cap (``None`` = engine default, ``1`` = serial).
    max_workers: int | None = None
    #: Per-second traffic simulation (True) vs the analytic fast path.
    full_simulation: bool = True
    #: Maximum measurement attempts per relay before "did not converge".
    #: A still-inconclusive relay is measured exactly ``max_rounds``
    #: times (attempts, not retries) before being declared failed.
    max_rounds: int = 8
    #: Std-dev of the analytic path's pre-drawn measurement-error factor.
    analytic_error_std: float = 0.02
    #: Path for a ``flashflow-trace/1`` JSONL trace of the run
    #: (:mod:`repro.obs`): manifest line, hierarchical campaign/round/
    #: kernel spans with wall+CPU time, and a metrics snapshot, written
    #: incrementally. ``None`` (the default) keeps the ambient tracer
    #: (normally the no-op null tracer -- the zero-overhead path).
    #: Tracing is semantics-preserving: spans read clocks, never RNGs,
    #: so a traced run's events and estimates are bit-identical to an
    #: untraced one.
    trace: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            if not isinstance(self.backend, str) or not self.backend:
                raise ConfigurationError(
                    "backend must be a kernel backend name or None"
                )
            from repro.kernel import backend_names

            known = {"auto"} | set(backend_names())
            if self.backend not in known:
                raise ConfigurationError(
                    f"unknown kernel backend {self.backend!r}; "
                    f"known: {sorted(known)}"
                )
        if self.shadow_backend is not None:
            if not isinstance(self.shadow_backend, str) or not self.shadow_backend:
                raise ConfigurationError(
                    "shadow_backend must be a shadow backend name or None"
                )
            from repro.shadow.flows import shadow_backend_names

            known = {"auto"} | set(shadow_backend_names())
            if self.shadow_backend not in known:
                raise ConfigurationError(
                    f"unknown shadow backend {self.shadow_backend!r}; "
                    f"known: {sorted(known)}"
                )
        if self.max_workers is not None and (
            not _is_int(self.max_workers) or self.max_workers < 1
        ):
            raise ConfigurationError(
                f"max_workers must be an integer >= 1 or None, "
                f"got {self.max_workers!r}"
            )
        if not isinstance(self.full_simulation, bool):
            raise ConfigurationError(
                f"full_simulation must be True or False, "
                f"got {self.full_simulation!r}"
            )
        if not _is_int(self.max_rounds) or self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be an integer >= 1, got {self.max_rounds!r}"
            )
        # NaN compares false both ways, so ``max(0.8, gauss(1, nan))``
        # would pin every analytic wobble at the floor: demand a finite
        # non-negative number.
        std = self.analytic_error_std
        if (
            isinstance(std, bool)
            or not isinstance(std, (int, float))
            or not math.isfinite(std)
            or std < 0
        ):
            raise ConfigurationError(
                f"analytic_error_std must be a finite number >= 0, got {std!r}"
            )
        if self.trace is not None and not isinstance(
            self.trace, (str, os.PathLike)
        ):
            raise ConfigurationError(
                "trace must be a path for the JSONL trace file or None"
            )

    def with_backend(self, backend: str | None) -> "ExecutionConfig":
        """A copy of this config on a different kernel backend."""
        return replace(self, backend=backend)

    def with_shadow_backend(self, shadow_backend: str | None) -> "ExecutionConfig":
        """A copy of this config on a different shadow flow backend."""
        return replace(self, shadow_backend=shadow_backend)
