"""The JSONL log substrate, the run manifest, and the summary text.

Traces (``flashflow-trace/1``) and the daemon's journals
(``flashflow-service/1``) are one kind of file: one JSON object with a
``type`` per line, each flushed as written, so a killed process still
leaves an analyzable prefix. :class:`JsonlLog` is the one writer; its
line 1 is the **manifest** (schema name, run id, scenario and seed,
``cpu_count``, python version, git revision, plus the owner's keys --
a trace's execution knobs, a journal's service config).
:func:`read_log` is the one reader, with the one torn-tail rule, and
:class:`LogSchemaError` the one error for a log that breaks its schema.

A trace's records: **span** records follow as spans close, children
before their parents (parent ids always refer to earlier-allocated ids,
so the span lines reassemble into a tree); then one **metrics** record
snapshots the registry and the final ``end`` record carries the span
count, so a truncated trace is detectable
(:meth:`repro.obs.trace.Tracer.finish` writes both). The journal's
records are listed in :mod:`repro.service.journal`.
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
from repro.obs.trace import Tracer

__all__ = [
    "TRACE_SCHEMA",
    "JsonlLog",
    "LogSchemaError",
    "git_revision",
    "read_log",
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
    """The ``type: "manifest"`` record that opens one run's log.

    ``extra`` keys (full_simulation, periods, max_rounds, a journal's
    ``schema`` and ``config``, ...) are merged in verbatim; provenance
    fields (cpu_count, python, git_rev, generated_unix, run_id) are
    always present.
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


class LogSchemaError(ValueError):
    """A JSONL log (trace or journal) broke its schema."""


class JsonlLog:
    """The append-only JSONL writer behind traces and journals.

    A fresh log writes ``manifest`` as line 1; ``resume=True`` reopens
    a log after dropping its torn tail (the bytes after the last
    newline). ``append`` after :meth:`close`, and a second ``close``,
    do nothing: a campaign generator's ``finally`` may race a caller's
    explicit close.
    """

    def __init__(self, path, manifest: dict | None = None,
                 resume: bool = False):
        if manifest is None and not resume:
            raise ValueError("a fresh log needs a manifest")
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            with self.path.open("r+b") as fh:
                fh.truncate(fh.read().rfind(b"\n") + 1)
        self._fh = self.path.open("a" if resume else "w", encoding="utf-8")
        self._closed = False
        if not resume:
            self.append(manifest)

    def append(self, record: dict) -> None:
        if self._closed:
            return
        self._fh.write(json.dumps(record, default=repr) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()


def read_log(path) -> tuple[list[tuple[int, dict]], bool]:
    """A log's ``(line number, record)`` pairs, and whether it is torn.

    The one torn-tail rule: only a final line without its newline is
    torn -- a writer killed mid-line -- and it is dropped. Every
    complete line, blank ones included, must be a JSON object with a
    ``type``; anything else raises :class:`LogSchemaError` naming the
    line.
    """
    lines = pathlib.Path(path).read_bytes().split(b"\n")
    torn = lines.pop() != b""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise LogSchemaError(f"line {lineno}: blank line")
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise LogSchemaError(
                f"line {lineno}: unparseable JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            raise LogSchemaError(
                f"line {lineno}: record is not an object with a 'type'"
            )
        records.append((lineno, record))
    return records, torn


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
