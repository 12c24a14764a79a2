"""The daemon's append-only JSONL event log (``flashflow-service/1``).

A journal is a trace's kind of log, written and read by
:mod:`repro.obs.export`'s :class:`~repro.obs.export.JsonlLog` and
:func:`~repro.obs.export.read_log`: one JSON object per line, the first
line a manifest, every line flushed as written, so a killed daemon
always leaves a valid prefix that :func:`read_journal` can load and
``python -m repro.obs.validate`` can check (this module holds the
record grammar, :mod:`repro.service.validate` its checks). Unlike a
trace, the journal is **appended to across daemon lifetimes**: a
resumed daemon drops a torn final line, reopens the same file, writes
a ``resumed`` marker, and keeps streaming, so the log is the one
durable artifact of the whole deployment.

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

from repro.obs.export import JsonlLog, read_log, run_manifest
from repro.service.state import SERVICE_SCHEMA, ServiceConfig, Snapshot

__all__ = [
    "ServiceJournal",
    "last_snapshot",
    "read_journal",
    "service_manifest",
]

#: The journal's writer is the one log writer.
ServiceJournal = JsonlLog


def service_manifest(config: ServiceConfig) -> dict:
    """The journal's line-1 manifest for one daemon launch."""
    return run_manifest(
        scenario_name=config.scenario,
        seed=config.effective_seed,
        schema=SERVICE_SCHEMA,
        config=config.to_dict(),
    )


def read_journal(path) -> list[dict]:
    """A journal's complete records (:func:`repro.obs.export.read_log`).

    A torn final line is dropped; any other malformed line raises
    :class:`~repro.obs.export.LogSchemaError` naming it.
    """
    return [record for _, record in read_log(path)[0]]


def last_snapshot(records: list[dict]) -> Snapshot | None:
    """The most recent complete snapshot in a journal, if any."""
    for record in reversed(records):
        if record.get("type") == "snapshot":
            return Snapshot.from_dict(record)
    return None
