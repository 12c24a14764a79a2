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

The historical scalar loop -- one ``analytic_estimate`` call per job --
stays in :class:`~repro.core.engine.MeasurementEngine` as the reference
the oracle suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from repro.core.engine import MeasurementEngine
from repro.core.params import FlashFlowParams
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
    """Per-job estimates plus fold decisions.

    ``thresholds``/``accepted`` are bit-identical to the campaign fold's
    scalar recomputation, so the fold consumes them directly.
    """

    #: Capacity estimate z per job (bit/s), in job order.
    estimates: list[float]
    #: BWAuth acceptance threshold per job.
    thresholds: list[float]
    #: ``z < threshold or capped`` per job.
    accepted: list[bool]


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
) -> AnalyticRoundResult:
    """Run one round of analytic estimates as one compiled array walk.

    Bit-identical to calling :meth:`MeasurementEngine.analytic_estimate`
    once per job and recomputing each accept decision.
    """
    params = params or engine.params or FlashFlowParams()
    with get_tracer().span("round.analytic", n_jobs=len(jobs)):
        return execute_analytic_round(compile_analytic_round(jobs, params))
