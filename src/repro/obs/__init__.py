"""``repro.obs`` -- tracing, metrics, and profiling for the whole stack.

A zero-dependency observability subsystem with three pillars:

- **tracer** (:mod:`repro.obs.trace`): hierarchical spans (``campaign >
  period > round > compile/execute/settle``, shadow-churn children)
  with wall/CPU time and attached attributes.
  The ambient tracer defaults to the no-op :data:`NULL_TRACER`;
  ``ExecutionConfig(trace=PATH)`` (or ``python -m repro.api --trace``)
  installs a recording tracer streaming to a JSONL file.
- **metrics** (:mod:`repro.obs.metrics`): counters / gauges /
  histograms at the choke points -- rounds retried, specs compiled,
  shadow churns -- plus :func:`warn_once` so silent
  degradations surface exactly once per process.
- **the log substrate** (:mod:`repro.obs.export`): the one JSONL
  writer (:class:`JsonlLog`, line 1 a run manifest with seed, scenario,
  cpu_count, git rev) and reader (:func:`read_log`, with the one
  torn-tail rule) behind both ``flashflow-trace/1`` traces and the
  daemon's ``flashflow-service/1`` journals, plus a plain-text summary
  renderer; :mod:`repro.obs.validate` checks either kind of log
  (``python -m repro.obs.validate``, CI smoke).
  :mod:`repro.obs.profiling` adds opt-in cProfile capture.

Tracing never perturbs results (spans read clocks, not RNGs; the
bit-identity oracle suites run traced), and the disabled path is a
no-op fast path: instrumentation sits at round granularity and
the null tracer allocates nothing.
"""

from repro.obs.export import (
    TRACE_SCHEMA,
    JsonlLog,
    LogSchemaError,
    git_revision,
    read_log,
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
    "JsonlLog",
    "LogSchemaError",
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
    "read_log",
    "render_summary",
    "reset_registry",
    "reset_warnings",
    "run_manifest",
    "use_tracer",
    "validate_log",
    "validate_trace",
]


def __getattr__(name):
    # Lazy so ``python -m repro.obs.validate`` doesn't re-import the
    # module it is about to execute (runpy warns about that).
    if name in ("TraceValidationError", "validate_log", "validate_trace"):
        from repro.obs import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
