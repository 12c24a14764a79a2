"""Hierarchical tracing spans with a zero-overhead disabled path.

A :class:`Tracer` produces a tree of :class:`Span` records --
``campaign > period > round > compile/execute/settle``, shadow-kernel
churn spans -- each carrying wall *and* CPU time plus free-form
attributes (slot counts, job counts). Instrumentation sits at round
granularity, never inside the per-second numpy walks, so a recording
tracer costs a handful of span objects per campaign round.

When tracing is off the ambient tracer is the module-level
:data:`NULL_TRACER`: ``span()`` returns the shared :data:`NULL_SPAN`
singleton (no allocation, no bookkeeping), so instrumented code pays
one attribute lookup and one no-op call per choke point. Tracing never
perturbs results either way -- spans only read clocks, never RNGs --
which is what lets the bit-identity oracle suites run with tracing on.

Parenting: each tracer keeps a per-thread stack of open spans; a span
opened while another is open on the same thread becomes its child, and
a span opened on a thread with no open span is a root.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "use_tracer",
]


class NullSpan:
    """The shared no-op span: enter/exit/set do nothing, allocate nothing."""

    __slots__ = ()

    #: Discriminates the null span from recording spans without isinstance.
    recording = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        return self


#: The singleton every ``NullTracer.span()`` call returns.
NULL_SPAN = NullSpan()


class NullTracer:
    """The disabled-path tracer: every span is :data:`NULL_SPAN`.

    ``span()`` ignores its arguments and returns the shared singleton,
    so the disabled path performs no allocation and records nothing
    (``spans`` is always the empty tuple -- the overhead guard test
    pins span count == 0 after a traced-off campaign).
    """

    __slots__ = ()

    enabled = False
    spans: tuple = ()

    def span(self, name, **attrs) -> NullSpan:
        return NULL_SPAN

    def finish(self, registry=None) -> None:
        return None


#: The module-level null tracer installed by default.
NULL_TRACER = NullTracer()


class Span:
    """One recorded operation: name, parent, wall/CPU time, attributes.

    Spans are context managers; timing runs from ``__enter__`` to
    ``__exit__`` (wall via ``perf_counter``, CPU via ``thread_time`` so
    worker-thread spans report their own thread's CPU share). Closed
    spans are appended to the tracer (and streamed to its sink) in
    close order, so children precede parents in a trace file.
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "start_unix",
        "wall_seconds",
        "cpu_seconds",
        "_wall0",
        "_cpu0",
    )

    recording = True

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_unix = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes after the span opened (e.g. counts known late)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_unix = time.time()
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.thread_time() - self._cpu0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop(self)
        return False

    def to_dict(self) -> dict:
        """The span's JSONL record (the ``type: "span"`` line schema)."""
        record = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_unix": round(self.start_unix, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """A recording tracer: hands out spans, collects them on close.

    ``sink`` is an optional append-only log (duck-typed: ``append(record)``
    and ``close()`` -- a :class:`repro.obs.export.JsonlLog`), which gets
    each closed span's record and, from :meth:`finish`, the metrics
    snapshot and the ``end`` record; with no sink the trace stays in
    memory (``tracer.spans``), which is what the benches use to derive
    stage breakdowns.
    """

    enabled = True

    def __init__(self, sink=None):
        self.sink = sink
        #: Closed spans in close order (children before their parents).
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span lifecycle -------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new span; enter it (``with``) to start the clocks.

        Its parent is the innermost open span on the *calling* thread,
        or none (a root span).
        """
        stack = getattr(self._local, "stack", None)
        parent_id = stack[-1].span_id if stack else None
        return Span(self, name, next(self._ids), parent_id, attrs)

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
            if self.sink is not None:
                self.sink.append(span.to_dict())

    # -- aggregation ----------------------------------------------------

    def wall_by_name(self) -> dict[str, float]:
        """Total wall seconds per span name (stage-breakdown helper)."""
        totals: dict[str, float] = {}
        with self._lock:
            for span in self.spans:
                totals[span.name] = (
                    totals.get(span.name, 0.0) + span.wall_seconds
                )
        return totals

    def finish(self, registry=None) -> None:
        """Close the sink with the metrics snapshot and the ``end`` record.

        A second call, and spans closing afterwards, write nothing.
        """
        with self._lock:
            sink, self.sink = self.sink, None
            if sink is None:
                return
            if registry is not None:
                sink.append({"type": "metrics", **registry.snapshot()})
            sink.append({"type": "end", "spans": len(self.spans)})
            sink.close()


# ----------------------------------------------------------------------
# The ambient tracer
# ----------------------------------------------------------------------
#
# A plain module global, deliberately *not* a contextvar: the service
# daemon runs each period's campaign in an executor thread, which must
# see the same tracer as the thread that installed it, and executor
# tasks run in the worker thread's own (empty) context.

_current: NullTracer | Tracer = NULL_TRACER


def get_tracer() -> NullTracer | Tracer:
    """The ambient tracer (the null tracer unless a run installed one)."""
    return _current


@contextmanager
def use_tracer(tracer: NullTracer | Tracer) -> Iterator[NullTracer | Tracer]:
    """Install ``tracer`` as the ambient tracer for the block's duration."""
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
