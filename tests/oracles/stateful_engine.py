"""The campaign's stateful references, patched in for a whole run.

Production campaigns run every full-simulation round through the
vectorized kernel (``MeasurementEngine.run_many`` -> ``run_specs``) and
every analytic round through the analytic array walk. The references
they must equal are the stateful per-spec ``MeasurementEngine.run`` and
one ``analytic_estimate`` call per job. ``use_stateful_reference``
patches both references in for a ``monkeypatch`` scope, so an oracle
test runs one scenario twice -- once patched, once not -- and compares
the reports.
"""

import repro.api.campaign
from repro.core.allocation import total_allocated
from repro.core.engine import MeasurementEngine
from repro.core.params import FlashFlowParams
from repro.kernel.analytic import AnalyticRoundResult


def reference_analytic_round(engine, jobs, params=None) -> AnalyticRoundResult:
    """One ``analytic_estimate`` call and one accept decision per job."""
    params = params or engine.params or FlashFlowParams()
    estimates, thresholds, accepted = [], [], []
    for job in jobs:
        z = engine.analytic_estimate(
            job.relay, job.assignments, params, job.wobble
        )
        threshold = params.acceptance_threshold(
            total_allocated(job.assignments)
        )
        estimates.append(z)
        thresholds.append(threshold)
        accepted.append(z < threshold or job.capped)
    return AnalyticRoundResult(estimates, thresholds, accepted)


def _stateful_run_many(engine, specs):
    return [engine.run(spec) for spec in specs]


def use_stateful_reference(monkeypatch) -> None:
    """Route campaign rounds through the stateful references."""
    monkeypatch.setattr(MeasurementEngine, "run_many", _stateful_run_many)
    monkeypatch.setattr(
        repro.api.campaign, "run_analytic_round", reference_analytic_round
    )
