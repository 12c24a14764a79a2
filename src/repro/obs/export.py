"""Trace exporters: incremental JSONL writer, run manifest, summary text.

The trace file format (``flashflow-trace/1``) is line-delimited JSON,
one record per line, written incrementally so a killed run still leaves
an analyzable prefix:

- line 1 is always the **manifest** (``type: "manifest"``): schema
  name, run id, scenario name and seed, execution knobs
  (full_simulation, max_rounds), ``cpu_count``, python version, and the
  git revision when available -- everything needed to interpret (or
  reproduce) the run. Validators ignore keys they do not read, so
  manifests written before the ``backend`` key was dropped still pass;
- **span** records (``type: "span"``) follow as spans close, children
  before their parents (a span closes before the span that opened it);
  parent ids always refer to earlier-allocated ids, so the file's span
  lines reassemble into a well-formed tree;
- one **metrics** record (``type: "metrics"``) near the end snapshots
  the registry (counters / gauges / histograms);
- the final record is ``type: "end"`` with the total span count, so a
  truncated file is detectable.

This schema is the substrate the ROADMAP's continuous daemon (item 1)
and campaign archive (item 4) consume: durable, append-only, parseable
line by line. :func:`repro.obs.validate.validate_trace` checks all of
the above and backs the CI smoke job.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time
import uuid

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "TRACE_SCHEMA",
    "JsonlTraceWriter",
    "git_revision",
    "render_summary",
    "run_manifest",
]

#: Schema tag written into every manifest (bump on breaking changes).
TRACE_SCHEMA = "flashflow-trace/1"


def git_revision() -> str | None:
    """The repo's HEAD revision, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_manifest(
    scenario_name: str | None = None,
    seed: int | None = None,
    **extra,
) -> dict:
    """The ``type: "manifest"`` record for one traced run.

    ``extra`` keys (full_simulation, periods, max_rounds, ...) are
    merged in verbatim; provenance fields (cpu_count, python,
    git_rev, generated_unix, run_id) are always present.
    """
    manifest = {
        "type": "manifest",
        "schema": TRACE_SCHEMA,
        "run_id": uuid.uuid4().hex,
        "generated_unix": int(time.time()),
        "scenario": scenario_name,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_revision(),
    }
    manifest.update(extra)
    return manifest


class JsonlTraceWriter:
    """Incremental JSONL sink for a :class:`repro.obs.trace.Tracer`.

    Writes the manifest on open, one span record per closed span, and
    (via :meth:`finish`) the metrics snapshot plus the ``end`` record.
    Each line is flushed as written so a killed process leaves a valid
    prefix; double-``finish`` and write-after-close are no-ops rather
    than errors (the campaign generator's finally block may race a
    caller's explicit close).
    """

    def __init__(self, path, manifest: dict | None = None):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self._spans_written = 0
        self._finished = False
        self._write(manifest if manifest is not None else run_manifest())

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, default=repr) + "\n")
        self._fh.flush()

    def write_span(self, span: Span) -> None:
        if self._finished:
            return
        self._write(span.to_dict())
        self._spans_written += 1

    def finish(
        self,
        registry: MetricsRegistry | None = None,
        summary: dict | None = None,
    ) -> None:
        if self._finished:
            return
        self._finished = True
        if registry is not None:
            self._write({"type": "metrics", **registry.snapshot()})
        record = {"type": "end", "spans": self._spans_written}
        if summary:
            record["summary"] = summary
        self._write(record)
        self._fh.close()


def render_summary(
    tracer: Tracer, registry: MetricsRegistry | None = None
) -> str:
    """A plain-text where-did-time-go table for one recorded trace.

    One row per span name (count, total wall, total CPU, mean wall),
    widest wall first, followed by the registry's non-zero counters --
    the human-readable companion to the JSONL file, printed by
    ``python -m repro.api --metrics``.
    """
    rows: dict[str, list[float]] = {}
    for span in tracer.spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.wall_seconds
        row[2] += span.cpu_seconds
    lines = [
        f"{'span':28s} {'count':>7s} {'wall_s':>10s} {'cpu_s':>10s} {'mean_ms':>9s}"
    ]
    for name, (count, wall, cpu) in sorted(
        rows.items(), key=lambda kv: -kv[1][1]
    ):
        lines.append(
            f"{name:28s} {count:7d} {wall:10.3f} {cpu:10.3f} "
            f"{1000.0 * wall / count:9.2f}"
        )
    if registry is not None:
        counters = {
            name: c.value
            for name, c in sorted(registry.counters.items())
            if c.value
        }
        if counters:
            lines.append("")
            lines.append(f"{'counter':44s} {'value':>10s}")
            for name, value in counters.items():
                lines.append(f"{name:44s} {value:10d}")
        gauges = {
            name: g for name, g in sorted(registry.gauges.items())
        }
        if gauges:
            lines.append("")
            lines.append(f"{'gauge':44s} {'value':>10s} {'max':>10s}")
            for name, g in gauges.items():
                lines.append(f"{name:44s} {g.value:10g} {g.max_value:10g}")
    return "\n".join(lines)
