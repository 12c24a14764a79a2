"""The ``flashflow-service/1`` record grammar: period coherence.

The framing -- every line a JSON object with a ``type``, only a final
line without its newline torn, the manifest first and never repeated,
span fields -- is checked by the one log reader and validator,
:func:`repro.obs.export.read_log` and :mod:`repro.obs.validate`. A
journal adds: its manifest carries the service ``config`` (an object),
and the record stream is *coherent*: period indices are ints that
advance one at a time, every completed period was started, every
``churn`` / ``round`` / ``published`` / ``span`` record sits inside its
period (a span may trail it), a snapshot whose ``next_period`` matches
closes each period boundary before the next period starts or the
daemon ends, a ``resumed`` daemon restarts at the last snapshot
(abandoning whatever it was killed in), and a journal claiming
completion ends with ``complete: true``. Any prefix of such a journal
-- a killed or still-running daemon's -- is valid, torn tail or not;
``--expect-complete`` asks for a finished deployment. CI's
``service-smoke`` job runs a short churned deployment, kills it at a
period boundary, resumes it, and validates the journal::

    PYTHONPATH=src python -m repro.obs.validate /tmp/service.jsonl --expect-complete

``python -m repro.service.validate`` runs the same command.
"""

from __future__ import annotations

from repro.obs.export import LogSchemaError, read_log
from repro.obs.validate import (
    MANIFEST_REQUIRED,
    check_int,
    check_manifest,
    check_span,
    fail,
    main,
)
from repro.service.state import SERVICE_SCHEMA, Snapshot

__all__ = ["JournalValidationError", "check_journal", "validate_journal"]

#: The name this module's callers have always caught.
JournalValidationError = LogSchemaError


def validate_journal(path) -> dict:
    """Validate one journal; returns summary stats or raises.

    The returned dict carries ``periods_completed`` / ``snapshots`` /
    ``published`` / ``churn_events`` / ``span_names`` / ``resumes`` /
    ``complete`` so callers (tests, CI) can assert on journal shape
    beyond mere validity.
    """
    return check_journal(path, *read_log(path))


def check_journal(path, records, torn: bool) -> dict:
    """The ``flashflow-service/1`` grammar over ``read_log``'s output."""
    manifest = check_manifest(
        path, records, SERVICE_SCHEMA, MANIFEST_REQUIRED + ("config",)
    )
    config = manifest["config"]
    if not isinstance(config, dict):
        fail(records[0][0], f"manifest config {config!r} is not an object")
    configured = config.get("periods")
    if configured is not None:
        check_int(records[0][0], "manifest config periods", configured)

    # Counted by period, not by record: a resumed daemon re-runs the
    # period it was killed in, and re-journals it.
    periods_completed: set[int] = set()
    published: set[int] = set()
    churn_events: dict[int, int] = {}
    snapshots = 0
    resumes = 0
    span_names: set[str] = set()
    open_period: int | None = None
    expected_next = 0
    last_snapshot_next: int | None = None
    complete = False

    for lineno, record in records[1:]:
        kind = record["type"]
        period = record.get("period")
        if kind == "period_started":
            check_int(lineno, "period_started period", period)
            if open_period is not None:
                fail(
                    lineno,
                    f"period {period} started while {open_period} is open",
                )
            if period != expected_next:
                fail(
                    lineno,
                    f"period {period} started out of order "
                    f"(expected {expected_next})",
                )
            if period > 0 and last_snapshot_next != period:
                fail(lineno, f"period {period} started before its snapshot")
            open_period = period
        elif kind in ("churn", "round", "published", "span"):
            check_int(lineno, f"{kind} period", period)
            # Spans carry durations, so they are written on *exit* and
            # legitimately trail the period_completed that closed their
            # period; everything else must sit inside an open period.
            in_open = open_period is not None and period == open_period
            trails = (
                kind == "span"
                and open_period is None
                and period == expected_next - 1
            )
            if not (in_open or trails):
                fail(
                    lineno,
                    f"{kind} record for period {period!r} "
                    f"outside an open period (open: {open_period})",
                )
            if kind == "churn":
                events = record.get("events")
                if not isinstance(events, list):
                    fail(lineno, "churn record has no events list")
                churn_events[period] = len(events)
            elif kind == "published":
                if "sha256" not in record:
                    fail(lineno, "published record has no sha256")
                published.add(period)
            elif kind == "span":
                check_span(lineno, record)
                span_names.add(record["name"])
        elif kind == "period_completed":
            check_int(lineno, "period_completed period", period)
            if period != open_period:
                fail(
                    lineno,
                    f"period_completed for {period!r} "
                    f"does not match open period {open_period}",
                )
            if "estimates_sha256" not in record:
                fail(lineno, "period_completed has no estimates_sha256")
            periods_completed.add(open_period)
            expected_next = open_period + 1
            open_period = None
        elif kind == "snapshot":
            if open_period is not None:
                fail(lineno, "snapshot inside an open period")
            try:
                snapshot = Snapshot.from_dict(record)
            except Exception as exc:
                raise LogSchemaError(
                    f"line {lineno}: unloadable snapshot: {exc}"
                ) from exc
            if snapshot.next_period != expected_next:
                fail(
                    lineno,
                    f"snapshot next_period {snapshot.next_period} != "
                    f"expected {expected_next}",
                )
            last_snapshot_next = snapshot.next_period
            snapshots += 1
        elif kind == "resumed":
            # A resumed daemon restarts at its last snapshot, abandoning
            # the period (or the unsnapshotted boundary) it was killed in.
            check_int(lineno, "resumed next_period", record.get("next_period"))
            if record["next_period"] != last_snapshot_next:
                fail(
                    lineno,
                    f"resumed at {record['next_period']!r}, last snapshot "
                    f"says {last_snapshot_next}",
                )
            open_period, expected_next = None, last_snapshot_next
            resumes += 1
        elif kind == "end":
            if open_period is not None:
                fail(lineno, "end record inside an open period")
            if expected_next > 0 and last_snapshot_next != expected_next:
                fail(lineno, "end record before the last period's snapshot")
            complete = bool(record.get("complete"))
        else:
            fail(lineno, f"unknown record type {kind!r}")

    if complete and configured is not None and expected_next < configured:
        raise LogSchemaError(
            f"{path}: journal claims completion at period {expected_next} "
            f"of {configured}"
        )

    return {
        "manifest": manifest,
        "periods_completed": len(periods_completed),
        "snapshots": snapshots,
        "published": len(published),
        "churn_events": sum(churn_events.values()),
        "resumes": resumes,
        "span_names": sorted(span_names),
        "truncated_tail": torn,
        "last_snapshot_next": last_snapshot_next,
        "complete": complete,
        "records": len(records),
    }


if __name__ == "__main__":
    raise SystemExit(main())
