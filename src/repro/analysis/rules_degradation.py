"""FF006: a swallowed exception is counted and warned, never silent.

**Invariant.** An ``except`` handler that falls back or continues (no
``raise`` anywhere in its body) must leave evidence: increment a metrics
counter (``.inc(...)`` / ``.observe(...)`` on a registry instrument) or
fire a one-shot ``warn_once``. A degradation that changes the execution
strategy -- a batch leaving the vectorized walk for a slower one, say --
keeps results correct by design, but *silently* taking the slow path is
how perf regressions and environment breakage hide for months.

**Provenance.** The contract was written for the since-removed process
backend's two fallbacks (shared memory falling back to pickling, a
worker pool rebuilt after a crash): each counted the event *and* fired a
``DegradationWarning`` via ``warn_once``. This rule generalizes it to
every handler that swallows. The kernel no longer degrades at all: a
relay it cannot compile raises a ``ConfigurationError`` naming the
relay (:func:`repro.kernel.run_specs`) instead of falling back to a
second walk. CLI ``__main__`` modules are exempt: converting an
exception into an error message and a nonzero exit *is* the evidence
there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintContext, register_rule

#: Call names that count as "evidence" the degradation was recorded.
WARN_CALLS = frozenset({"warn_once", "warn", "warning", "error", "exception"})

#: Method names that record the event on a metrics instrument.
METRIC_METHODS = frozenset({"inc", "observe", "set"})


def _handler_has_evidence(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in WARN_CALLS:
                return True
            if isinstance(func, ast.Attribute) and (
                func.attr in WARN_CALLS or func.attr in METRIC_METHODS
            ):
                return True
    return False


@register_rule("FF006", "silent-degradation")
def check_silent_degradation(ctx: LintContext) -> Iterator[Finding]:
    """``except`` fallbacks with no counter increment and no ``warn_once``."""
    if ctx.module.rsplit(".", 1)[-1] == "__main__":
        return  # CLI boundary: the error message + exit code is the evidence
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if not _handler_has_evidence(handler):
                caught = (
                    ast.unparse(handler.type) if handler.type is not None
                    else "BaseException"
                )
                yield ctx.finding(
                    handler, "FF006",
                    f"`except {caught}` falls back silently: no re-raise, "
                    "no metrics counter, no warn_once -- degradations must "
                    "leave evidence",
                )
