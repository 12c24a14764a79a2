"""How a campaign is executed, separated from what it measures.

:class:`ExecutionConfig` collects every knob that affects *how* a
campaign runs -- full vs analytic simulation, retry budget, the
analytic path's error model, tracing -- and none that affect *what* is
measured (that is :class:`repro.api.scenario.Scenario`).

This replaces the loose kwarg tail ``measure_network(...,
full_simulation=, max_rounds=, analytic_error_std=)`` with one
validated, frozen object that threads cleanly down to
:class:`repro.core.engine.MeasurementEngine` and :mod:`repro.kernel`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError, _is_finite_number, _is_int


@dataclass(frozen=True)
class ExecutionConfig:
    """Execution policy for one campaign run.

    ``full_simulation`` switches between the per-second traffic walk and
    the engine's analytic accept/retry model (used by
    scheduling-efficiency studies where only slot accounting matters).
    """

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
        if not _is_finite_number(std) or std < 0:
            raise ConfigurationError(
                f"analytic_error_std must be a finite number >= 0, got {std!r}"
            )
        if self.trace is not None and not isinstance(
            self.trace, (str, os.PathLike)
        ):
            raise ConfigurationError(
                "trace must be a path for the JSONL trace file or None"
            )
