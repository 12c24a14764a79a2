"""Validator for ``flashflow-trace/1`` JSONL trace files.

Checks everything the schema promises (see
:mod:`repro.obs.export`): every line parses as a JSON object with a
``type``; the first record is a manifest carrying the provenance
fields; span records form a well-formed tree (unique ids, parents
allocated before children, all parents resolvable, at least one root,
non-negative times); a metrics snapshot is present; and the closing
``end`` record's span count matches. CI's obs smoke job runs a canned
scenario with ``--trace`` and pipes the file through this module::

    PYTHONPATH=src python -m repro.obs.validate /tmp/trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

__all__ = ["TraceValidationError", "validate_trace"]

#: Manifest keys every trace must carry. Other keys are ignored, so a
#: manifest written while it still recorded a ``backend`` stays valid.
MANIFEST_REQUIRED = (
    "schema", "run_id", "generated_unix", "scenario", "seed",
    "cpu_count", "python",
)


class TraceValidationError(ValueError):
    """A trace file violated the flashflow-trace/1 schema."""


def _fail(lineno: int, message: str) -> None:
    raise TraceValidationError(f"line {lineno}: {message}")


def validate_trace(path) -> dict:
    """Validate one trace file; returns summary stats or raises.

    The returned dict carries ``spans`` / ``roots`` / ``max_depth`` /
    ``metrics_records`` / ``manifest`` so callers (tests, the CI smoke
    job) can assert on trace shape beyond mere validity.
    """
    path = pathlib.Path(path)
    records: list[tuple[int, dict]] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                _fail(lineno, "blank line in trace")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(lineno, f"unparseable JSON: {exc}")
            if not isinstance(record, dict) or "type" not in record:
                _fail(lineno, "record is not an object with a 'type'")
            records.append((lineno, record))

    if not records:
        raise TraceValidationError(f"{path}: empty trace")

    lineno, manifest = records[0]
    if manifest["type"] != "manifest":
        _fail(lineno, "first record must be the manifest")
    for key in MANIFEST_REQUIRED:
        if key not in manifest:
            _fail(lineno, f"manifest missing required key {key!r}")
    if manifest["schema"] != "flashflow-trace/1":
        _fail(lineno, f"unknown schema {manifest['schema']!r}")

    spans: dict[int, dict] = {}
    parents: dict[int, int | None] = {}
    metrics_records = 0
    end_record: dict | None = None
    for lineno, record in records[1:]:
        kind = record["type"]
        if kind == "manifest":
            _fail(lineno, "duplicate manifest")
        elif kind == "span":
            for key in ("id", "name", "wall_seconds", "cpu_seconds"):
                if key not in record:
                    _fail(lineno, f"span missing {key!r}")
            span_id = record["id"]
            if not isinstance(span_id, int) or span_id < 1:
                _fail(lineno, f"span id {span_id!r} is not a positive int")
            if span_id in spans:
                _fail(lineno, f"duplicate span id {span_id}")
            parent = record.get("parent")
            if parent is not None:
                if not isinstance(parent, int):
                    _fail(lineno, f"span {span_id} parent {parent!r} not an int")
                if parent >= span_id:
                    # Ids allocate parent-first, so a parent id >= the
                    # child's would mean a cycle or a corrupt tree.
                    _fail(
                        lineno,
                        f"span {span_id} parent {parent} not allocated "
                        f"before the child",
                    )
            if record["wall_seconds"] < 0 or record["cpu_seconds"] < 0:
                _fail(lineno, f"span {span_id} has negative time")
            spans[span_id] = record
            parents[span_id] = parent
        elif kind == "metrics":
            metrics_records += 1
            for key in ("counters", "gauges", "histograms"):
                if key not in record:
                    _fail(lineno, f"metrics record missing {key!r}")
        elif kind == "end":
            if end_record is not None:
                _fail(lineno, "duplicate end record")
            end_record = record
        else:
            _fail(lineno, f"unknown record type {kind!r}")

    roots = []
    for span_id, parent in parents.items():
        if parent is None:
            roots.append(span_id)
        elif parent not in spans:
            raise TraceValidationError(
                f"span {span_id} references unknown parent {parent}"
            )
    if spans and not roots:
        raise TraceValidationError("trace has spans but no root span")
    if metrics_records == 0:
        raise TraceValidationError("trace has no metrics snapshot")
    if end_record is None:
        raise TraceValidationError("trace has no end record (truncated?)")
    if end_record.get("spans") != len(spans):
        raise TraceValidationError(
            f"end record says {end_record.get('spans')} spans, "
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
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate", description=__doc__
    )
    parser.add_argument("trace", type=pathlib.Path, help="trace JSONL file")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        stats = validate_trace(args.trace)
    except (TraceValidationError, OSError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        manifest = stats["manifest"]
        print(
            f"valid flashflow-trace/1: {stats['spans']} spans "
            f"({stats['roots']} root(s), depth {stats['max_depth']}), "
            f"{stats['metrics_records']} metrics snapshot(s); "
            f"scenario={manifest.get('scenario')!r} "
            f"seed={manifest.get('seed')}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
