"""The daemon's append-only JSONL event log (``flashflow-service/1``).

Same discipline as :class:`repro.obs.export.JsonlTraceWriter` (the
``flashflow-trace/1`` substrate this format deliberately mirrors): one
JSON object per line, the first line a manifest, every line flushed as
written -- so a killed daemon always leaves a valid prefix that
:func:`read_journal` can load and :mod:`repro.service.validate` can
check. Unlike a trace, the journal is **appended to across daemon
lifetimes**: a resumed daemon reopens the same file, writes a
``resumed`` marker, and keeps streaming, so the log is the one durable
artifact of the whole deployment.

Record types:

- ``manifest`` -- schema, run id, provenance (cpu_count, python, git
  rev), and the full :class:`~repro.service.state.ServiceConfig`;
- ``period_started`` / ``period_completed`` -- period boundaries, the
  latter carrying the estimates digest and error-vs-truth stats;
- ``churn`` -- the period's churn events and the counts the network
  table applied. Older journals also carry, here and in
  ``period_completed``, counts from a §4.3 schedule the daemon built
  but never executed; readers ignore them;
- ``round`` -- one campaign round's aggregate outcome;
- ``published`` -- a bandwidth file's path, line count, and sha256;
- ``span`` -- service-layer span timings (``service.period``,
  ``service.churn.applied``, ``service.publish``);
- ``snapshot`` -- the inline durable state
  (:class:`~repro.service.state.Snapshot` + a metrics snapshot);
- ``resumed`` -- a new daemon process took over at this point;
- ``end`` -- a daemon exited cleanly (``complete`` tells whether the
  whole configured deployment is done or a resume is expected).
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.export import run_manifest
from repro.service.state import SERVICE_SCHEMA, ServiceConfig, Snapshot

__all__ = [
    "ServiceJournal",
    "last_snapshot",
    "read_journal",
    "service_manifest",
]


def service_manifest(config: ServiceConfig) -> dict:
    """The journal's line-1 manifest for one daemon launch."""
    manifest = run_manifest(
        scenario_name=config.scenario,
        seed=config.effective_seed,
    )
    manifest["schema"] = SERVICE_SCHEMA
    manifest["config"] = config.to_dict()
    return manifest


class ServiceJournal:
    """Append-only JSONL writer with flush-per-line durability."""

    def __init__(self, path, manifest: dict | None = None,
                 resume: bool = False):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            self._trim_partial_tail()
        self._fh = self.path.open("a" if resume else "w", encoding="utf-8")
        self._closed = False
        if not resume:
            if manifest is None:
                raise ValueError("a fresh journal needs a manifest")
            self.append(manifest)

    def _trim_partial_tail(self) -> None:
        """Drop a killed-mid-write partial final line before appending.

        The writer terminates every complete record with a newline, so
        any non-newline-terminated tail is a torn write; appending after
        it would corrupt the journal mid-file.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        if data and not data.endswith(b"\n"):
            cut = data.rfind(b"\n")
            self.path.write_bytes(data[: cut + 1] if cut >= 0 else b"")

    def append(self, record: dict) -> None:
        if self._closed:
            return
        self._fh.write(json.dumps(record, default=repr) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()


def read_journal(path) -> list[dict]:
    """Load a journal, tolerating a truncated (killed-mid-write) tail.

    Only the *final* line may be unparseable -- that is the valid-prefix
    guarantee. Corruption anywhere earlier raises ``ValueError``.
    """
    path = pathlib.Path(path)
    records: list[dict] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            if lineno == len(lines):
                break
            raise ValueError(f"{path}: blank line {lineno} in journal")
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # killed mid-write: drop the partial tail line
            raise ValueError(f"{path}: corrupt journal line {lineno}")
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(
                f"{path}: line {lineno} is not an object with a 'type'"
            )
        records.append(record)
    return records


def last_snapshot(records: list[dict]) -> Snapshot | None:
    """The most recent complete snapshot in a journal, if any."""
    for record in reversed(records):
        if record.get("type") == "snapshot":
            return Snapshot.from_dict(record)
    return None
