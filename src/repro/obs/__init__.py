"""``repro.obs`` -- tracing, metrics, and profiling for the whole stack.

A zero-dependency observability subsystem with three pillars:

- **tracer** (:mod:`repro.obs.trace`): hierarchical spans (``campaign >
  period > round > compile/execute/settle``, shadow-churn children)
  with wall/CPU time and attached attributes.
  The ambient tracer defaults to the no-op :data:`NULL_TRACER`;
  ``ExecutionConfig(trace=PATH)`` (or ``python -m repro.api --trace``)
  installs a recording tracer streaming to a JSONL file.
- **metrics** (:mod:`repro.obs.metrics`): counters / gauges /
  histograms at the choke points -- rounds retried, stateful-path
  fallbacks, shadow churns -- plus :func:`warn_once` so silent
  degradations surface exactly once per process.
- **exporters** (:mod:`repro.obs.export`): the incremental
  ``flashflow-trace/1`` JSONL writer with a run manifest (seed,
  scenario, cpu_count, git rev) and a plain-text summary
  renderer; :mod:`repro.obs.validate` checks emitted files (CI smoke).
  :mod:`repro.obs.profiling` adds opt-in cProfile capture.

Tracing never perturbs results (spans read clocks, not RNGs; the
bit-identity oracle suites run traced), and the disabled path is a
no-op fast path: instrumentation sits at round granularity and
the null tracer allocates nothing. This event/metrics schema is the
substrate the continuous daemon (ROADMAP item 1) and campaign archive
(item 4) will consume.
"""

from repro.obs.export import (
    TRACE_SCHEMA,
    JsonlTraceWriter,
    git_revision,
    render_summary,
    run_manifest,
)
from repro.obs.metrics import (
    Counter,
    DegradationWarning,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
    reset_warnings,
    warn_once,
)
from repro.obs.profiling import maybe_profile
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    use_tracer,
)
__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "Counter",
    "DegradationWarning",
    "Gauge",
    "Histogram",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "NullSpan",
    "NullTracer",
    "Span",
    "TraceValidationError",
    "Tracer",
    "get_registry",
    "get_tracer",
    "git_revision",
    "maybe_profile",
    "render_summary",
    "reset_registry",
    "reset_warnings",
    "run_manifest",
    "use_tracer",
    "validate_trace",
]


def __getattr__(name):
    # Lazy so ``python -m repro.obs.validate`` doesn't re-import the
    # module it is about to execute (runpy warns about that).
    if name in ("TraceValidationError", "validate_trace"):
        from repro.obs import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
