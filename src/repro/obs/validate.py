"""The one validator for JSONL logs: traces and service journals.

:func:`repro.obs.export.read_log` checks the framing; the checks here
are shared by both grammars: the manifest comes first, with the
provenance keys and the expected schema, and is never repeated
(:func:`check_manifest`); a span record has a string name and finite,
non-negative times (:func:`check_span`); ids and period indices are
ints, not bools (:func:`check_int`). A trace (``flashflow-trace/1``,
:func:`validate_trace`) adds a well-formed span tree (unique ids,
parents allocated before children, a root), a metrics snapshot and an
``end`` record whose span count matches, so a torn tail is an error; a
journal adds period coherence (:mod:`repro.service.validate`). Every
violation raises :class:`~repro.obs.export.LogSchemaError` naming the
line. The command validates either kind of log, chosen by its
manifest's schema (CI ``obs-smoke`` and ``service-smoke``)::

    PYTHONPATH=src python -m repro.obs.validate /tmp/trace.jsonl
    PYTHONPATH=src python -m repro.obs.validate /tmp/service.jsonl --expect-complete
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import NoReturn

from repro.errors import _is_finite_number, _is_int
from repro.obs.export import TRACE_SCHEMA, LogSchemaError, read_log

__all__ = [
    "TraceValidationError",
    "check_int",
    "check_manifest",
    "check_span",
    "validate_log",
    "validate_trace",
]

#: The name this module's callers have always caught.
TraceValidationError = LogSchemaError

#: Provenance keys every manifest carries. Other keys are ignored, so a
#: manifest written while it still recorded a ``backend`` stays valid.
MANIFEST_REQUIRED = (
    "schema", "run_id", "generated_unix", "scenario", "seed",
    "cpu_count", "python",
)


def fail(lineno: int, message: str) -> NoReturn:
    raise LogSchemaError(f"line {lineno}: {message}")


def check_manifest(path, records, schema: str,
                   required=MANIFEST_REQUIRED) -> dict:
    """The first record is a ``schema`` manifest, and the only one."""
    if not records:
        raise LogSchemaError(f"{path}: no complete records")
    lineno, manifest = records[0]
    if manifest["type"] != "manifest":
        fail(lineno, "first record must be the manifest")
    for key in required:
        if key not in manifest:
            fail(lineno, f"manifest missing required key {key!r}")
    if manifest["schema"] != schema:
        fail(lineno, f"unknown schema {manifest['schema']!r}")
    for lineno, record in records[1:]:
        if record["type"] == "manifest":
            fail(lineno, "duplicate manifest")
    return manifest


def check_int(lineno: int, what: str, value, least: int = 0) -> None:
    """``value`` is an int (not a bool) of at least ``least``."""
    if not (_is_int(value) and value >= least):
        fail(lineno, f"{what} {value!r} is not an int >= {least}")


def check_span(lineno: int, record: dict) -> None:
    """The fields every span record carries, in a trace or a journal."""
    for key in ("name", "wall_seconds", "cpu_seconds"):
        if key not in record:
            fail(lineno, f"span missing {key!r}")
    if not isinstance(record["name"], str):
        fail(lineno, f"span name {record['name']!r} is not a string")
    for key in ("wall_seconds", "cpu_seconds"):
        value = record[key]
        if not (_is_finite_number(value) and value >= 0):
            fail(lineno, f"span {key} {value!r} is not a finite time >= 0")


def validate_trace(path) -> dict:
    """Validate one trace file; returns summary stats or raises.

    The returned dict carries ``spans`` / ``roots`` / ``max_depth`` /
    ``metrics_records`` / ``manifest`` so callers (tests, the CI smoke
    job) can assert on trace shape beyond mere validity.
    """
    return check_trace(path, *read_log(path))


def check_trace(path, records, torn: bool) -> dict:
    """The ``flashflow-trace/1`` grammar over :func:`read_log`'s output."""
    if torn:
        fail(len(records) + 1, "torn final line (no newline)")
    manifest = check_manifest(path, records, TRACE_SCHEMA)
    spans: dict[int, dict] = {}
    parents: dict[int, int | None] = {}
    metrics_records = 0
    end_record: dict | None = None
    for lineno, record in records[1:]:
        kind = record["type"]
        if kind == "span":
            check_span(lineno, record)
            span_id = record.get("id")
            check_int(lineno, "span id", span_id, least=1)
            if span_id in spans:
                fail(lineno, f"duplicate span id {span_id}")
            parent = record.get("parent")
            if parent is not None:
                check_int(lineno, f"span {span_id} parent", parent, least=1)
                if parent >= span_id:
                    # Ids allocate parent-first, so a parent id >= the
                    # child's would mean a cycle or a corrupt tree.
                    fail(
                        lineno,
                        f"span {span_id} parent {parent} not allocated "
                        f"before the child",
                    )
            spans[span_id] = record
            parents[span_id] = parent
        elif kind == "metrics":
            metrics_records += 1
            for key in ("counters", "gauges", "histograms"):
                if key not in record:
                    fail(lineno, f"metrics record missing {key!r}")
        elif kind == "end":
            if end_record is not None:
                fail(lineno, "duplicate end record")
            check_int(lineno, "end record spans", record.get("spans"))
            end_record = record
        else:
            fail(lineno, f"unknown record type {kind!r}")

    roots = []
    for span_id, parent in parents.items():
        if parent is None:
            roots.append(span_id)
        elif parent not in spans:
            raise LogSchemaError(
                f"span {span_id} references unknown parent {parent}"
            )
    if spans and not roots:
        raise LogSchemaError("trace has spans but no root span")
    if metrics_records == 0:
        raise LogSchemaError("trace has no metrics snapshot")
    if end_record is None:
        raise LogSchemaError("trace has no end record (truncated?)")
    if end_record["spans"] != len(spans):
        raise LogSchemaError(
            f"end record says {end_record['spans']} spans, "
            f"file has {len(spans)}"
        )

    def depth(span_id: int) -> int:
        d = 1
        parent = parents[span_id]
        while parent is not None:
            d += 1
            parent = parents[parent]
        return d

    return {
        "manifest": manifest,
        "spans": len(spans),
        "roots": len(roots),
        "max_depth": max((depth(s) for s in spans), default=0),
        "metrics_records": metrics_records,
        "span_names": sorted({r["name"] for r in spans.values()}),
        "complete": True,
    }


def validate_log(path) -> dict:
    """Validate a trace or a journal, chosen by its manifest's schema."""
    records, torn = read_log(path)
    if records and records[0][1].get("schema") == TRACE_SCHEMA:
        return check_trace(path, records, torn)
    # Function scope: repro.obs never depends on repro.service at import.
    from repro.service.validate import check_journal

    return check_journal(path, records, torn)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate", description=__doc__
    )
    parser.add_argument(
        "log", type=pathlib.Path, help="trace or service journal JSONL file"
    )
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--expect-complete",
        action="store_true",
        help="also fail unless the log records a finished run",
    )
    args = parser.parse_args(argv)
    try:
        stats = validate_log(args.log)
        if args.expect_complete and not stats["complete"]:
            raise LogSchemaError(f"{args.log}: does not end complete")
    # ff-lint: allow[FF006] reason=validator CLI boundary: the error is printed and the exit code is nonzero -- nothing is silent
    except (LogSchemaError, OSError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        manifest = stats.pop("manifest")
        shape = ", ".join(
            f"{key}={value}" for key, value in stats.items()
            if key != "span_names"
        )
        print(
            f"valid {manifest['schema']}: {shape}; "
            f"scenario={manifest.get('scenario')!r} "
            f"seed={manifest.get('seed')}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
