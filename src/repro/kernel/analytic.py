"""The vectorized analytic estimation kernel.

Fast campaign sweeps and multi-period deployments run with
``full_simulation=False``: instead of the per-second traffic walk, every
measurement of a round collapses to the engine's closed-form
:meth:`repro.core.engine.MeasurementEngine.analytic_estimate` -- the
supply-limited, wobbled true capacity -- plus the BWAuth's accept/retry
decision against the acceptance threshold. The historical path walked
that round in scalar Python, one ``analytic_estimate`` call and one
``acceptance_threshold`` recomputation per job.

This module lowers a whole round at once, the same recipe
:mod:`repro.kernel.supply` applies to the full-simulation walk:

- **compile** (:func:`compile_analytic_round`): one pass over the round's
  jobs gathers the per-job scalars -- ground-truth capacity, the
  allocation sum (the per-spec supply cap, summed in assignment order
  exactly like :func:`repro.core.allocation.total_allocated`), the
  pre-drawn wobble noise factor, and the team-capacity ``capped`` flag --
  into float64/bool arrays;
- **execute** (:func:`execute_analytic_round`): the ratio-style supply
  split ``min(capacity * wobble, allocated / m)``, the BWAuth acceptance
  clamp ``allocated * (1 - eps1) / m``, and the accept decision
  ``z < threshold or capped`` run as elementwise ops across all
  measurements in the round.

Every array op mirrors the scalar arithmetic operation for operation
(IEEE-754 double multiply/divide/compare, ``np.minimum`` == ``min`` for
non-NaN inputs), so estimates, thresholds, and accept decisions are
**bit-identical** to the stateful ``analytic_estimate`` loop -- the
oracle suite in ``tests/kernel/test_analytic.py`` asserts exact ``==``.

Backend selection reuses the kernel registry
(:mod:`repro.kernel.backends`): :func:`run_analytic_round` resolves the
usual chain (explicit argument > ``FlashFlowParams.kernel_backend`` >
``FLASHFLOW_KERNEL_BACKEND`` > ``auto``). ``serial`` keeps the
historical scalar loop alive for debugging granularity; every other
backend runs the single array walk (an elementwise O(n) pass gains
nothing from process chunking).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from repro.core.engine import MeasurementEngine
from repro.core.params import FlashFlowParams
from repro.kernel.backends import resolve_backend_name
from repro.obs.trace import get_tracer

_ALLOCATED = attrgetter("allocated")
_WOBBLE = attrgetter("wobble")
_CAPPED = attrgetter("capped")

__all__ = [
    "AnalyticRoundResult",
    "CompiledAnalyticRound",
    "compile_analytic_round",
    "execute_analytic_round",
    "run_analytic_round",
]


@dataclass
class CompiledAnalyticRound:
    """One round of analytic measurements, lowered to arrays.

    ``allocated`` sums each job's assignments in assignment order --
    the same left-to-right accumulation as ``total_allocated`` -- so the
    downstream supply and threshold arithmetic sees the exact scalars
    the stateful loop would.
    """

    #: Ground-truth relay capacity per job (bit/s).
    capacity: np.ndarray
    #: sum(a_i) per job (bit/s), in assignment order.
    allocated: np.ndarray
    #: Pre-drawn measurement-error factor per job.
    wobble: np.ndarray
    #: Whether the job's required allocation was capped by team capacity
    #: (capped jobs are accepted regardless of the threshold).
    capped: np.ndarray
    #: Measurer-capacity multiplier m shared by the round.
    multiplier: float
    #: epsilon_1 of the acceptance threshold shared by the round.
    epsilon1: float


@dataclass
class AnalyticRoundResult:
    """Per-job estimates plus (on the vectorized path) fold decisions.

    ``thresholds``/``accepted`` are ``None`` on the ``serial`` debug
    path; the campaign fold then recomputes the accept decision per job
    exactly as the historical loop did. When present they are
    bit-identical to that recomputation, so the fold may consume them
    directly.
    """

    #: Capacity estimate z per job (bit/s), in job order.
    estimates: list[float]
    #: BWAuth acceptance threshold per job, or None (serial path).
    thresholds: list[float] | None = None
    #: ``z < threshold or capped`` per job, or None (serial path).
    accepted: list[bool] | None = None


def _true_capacities(jobs: Sequence) -> Iterator[float]:
    """``job.relay.true_capacity`` per job, property machinery inlined.

    The kernel idiom (:mod:`repro.kernel.supply` mirrors
    ``Relay.measured_second`` the same way): reproduce the stateful
    arithmetic -- here :attr:`Relay.true_capacity`'s
    min(CPU, link, rate-limit) chain -- without per-job descriptor and
    call overhead. The oracle suite asserts this matches the property
    exactly.
    """
    for job in jobs:
        relay = job.relay
        cap = relay.cpu.max_forward_bits
        host = relay.host
        if host is not None and host.link_capacity < cap:
            cap = host.link_capacity
        rate = relay.rate_limit
        if rate is not None and rate < cap:
            cap = rate
        yield cap


def compile_analytic_round(
    jobs: Sequence, params: FlashFlowParams
) -> CompiledAnalyticRound:
    """Gather a round's analytic inputs into arrays (the prepare half).

    ``jobs`` need ``relay``/``assignments``/``wobble``/``capped``
    attributes (the campaign's ``_Job``); compilation is one pure pass,
    no RNG and no relay state beyond reading ``true_capacity``.
    """
    n = len(jobs)
    capacity = np.fromiter(_true_capacities(jobs), dtype=np.float64, count=n)
    allocated = np.fromiter(
        (sum(map(_ALLOCATED, job.assignments)) for job in jobs),
        dtype=np.float64,
        count=n,
    )
    wobble = np.fromiter(map(_WOBBLE, jobs), dtype=np.float64, count=n)
    capped = np.fromiter(map(_CAPPED, jobs), dtype=np.bool_, count=n)
    return CompiledAnalyticRound(
        capacity=capacity,
        allocated=allocated,
        wobble=wobble,
        capped=capped,
        multiplier=params.multiplier,
        epsilon1=params.epsilon1,
    )


def execute_analytic_round(
    compiled: CompiledAnalyticRound,
) -> AnalyticRoundResult:
    """Walk one compiled round as elementwise array ops.

    Op for op the scalar path's arithmetic:

    - estimate: ``min(capacity * wobble, allocated / m)``
      (:meth:`MeasurementEngine.analytic_finish`),
    - threshold: ``allocated * (1 - eps1) / m``
      (:meth:`FlashFlowParams.acceptance_threshold`),
    - accept: ``z < threshold or capped`` (the campaign fold).
    """
    supply = compiled.allocated / compiled.multiplier
    estimates = np.minimum(compiled.capacity * compiled.wobble, supply)
    thresholds = (
        compiled.allocated * (1.0 - compiled.epsilon1) / compiled.multiplier
    )
    accepted = (estimates < thresholds) | compiled.capped
    return AnalyticRoundResult(
        estimates=estimates.tolist(),
        thresholds=thresholds.tolist(),
        accepted=accepted.tolist(),
    )


def run_analytic_round(
    engine: MeasurementEngine,
    jobs: Sequence,
    params: FlashFlowParams | None = None,
    backend: str | None = None,
) -> AnalyticRoundResult:
    """Run one round of analytic estimates on the selected backend.

    Backend resolution is the kernel's usual chain (explicit >
    ``params.kernel_backend`` > ``FLASHFLOW_KERNEL_BACKEND`` > ``auto``),
    validated at resolution time. ``serial`` runs the stateful
    reference -- one :meth:`MeasurementEngine.analytic_estimate` call per
    job, fold decisions left to the caller -- and every other backend
    runs the compiled array walk. Both produce bit-identical campaigns.
    """
    params = params or engine.params or FlashFlowParams()
    name = resolve_backend_name(backend, params.kernel_backend)
    with get_tracer().span("round.analytic", backend=name, n_jobs=len(jobs)):
        if name == "serial":
            return AnalyticRoundResult(
                estimates=[
                    engine.analytic_estimate(
                        job.relay, job.assignments, params, job.wobble
                    )
                    for job in jobs
                ]
            )
        return execute_analytic_round(compile_analytic_round(jobs, params))
