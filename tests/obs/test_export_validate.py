"""Exporter + validator tests: JSONL record sequence, schema checks."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    TRACE_SCHEMA,
    JsonlTraceWriter,
    MetricsRegistry,
    TraceValidationError,
    Tracer,
    maybe_profile,
    render_summary,
    run_manifest,
    validate_trace,
)


def _read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _write_trace(path, n_children=2):
    """One traced 'run': root span, children, metrics, end record."""
    registry = MetricsRegistry()
    registry.counter("campaign.rounds").inc(n_children)
    tracer = Tracer(sink=JsonlTraceWriter(path, run_manifest("unit", 7)))
    with tracer.span("campaign", scenario="unit"):
        for index in range(n_children):
            with tracer.span("round", round_index=index):
                pass
    tracer.finish(registry=registry)
    return tracer


def test_run_manifest_fields():
    manifest = run_manifest("fig06", 3, periods=2, max_rounds=5)
    assert manifest["type"] == "manifest"
    assert manifest["schema"] == TRACE_SCHEMA
    assert manifest["scenario"] == "fig06"
    assert manifest["seed"] == 3
    assert "backend" not in manifest
    assert manifest["periods"] == 2 and manifest["max_rounds"] == 5
    assert manifest["cpu_count"] >= 1
    assert isinstance(manifest["python"], str)
    assert len(manifest["run_id"]) == 32


def test_writer_record_sequence(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_trace(path, n_children=2)
    records = _read_records(path)
    kinds = [r["type"] for r in records]
    assert kinds == ["manifest", "span", "span", "span", "metrics", "end"]
    # Children close (and are written) before their parent.
    assert [r["name"] for r in records[1:4]] == ["round", "round", "campaign"]
    assert records[-1]["spans"] == 3
    assert records[4]["counters"] == {"campaign.rounds": 2}


def test_writer_double_finish_is_a_noop(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = JsonlTraceWriter(path, run_manifest("unit", 0))
    writer.finish()
    writer.finish()
    records = _read_records(path)
    assert [r["type"] for r in records] == ["manifest", "end"]


def test_writer_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "trace.jsonl"
    JsonlTraceWriter(path, run_manifest("unit", 0)).finish()
    assert path.exists()


def test_validate_accepts_a_real_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_trace(path, n_children=3)
    stats = validate_trace(path)
    assert stats["spans"] == 4
    assert stats["roots"] == 1
    assert stats["max_depth"] == 2
    assert stats["metrics_records"] == 1
    assert stats["span_names"] == ["campaign", "round"]
    assert stats["manifest"]["scenario"] == "unit"


def test_validate_accepts_a_trace_whose_manifest_names_a_backend(tmp_path):
    """Traces written while the manifest recorded the kernel and shadow
    backends still validate: unknown manifest keys are ignored."""
    path = tmp_path / "old.jsonl"
    manifest = run_manifest("unit", 7, backend="process",
                            shadow_backend="stateful")
    tracer = Tracer(sink=JsonlTraceWriter(path, manifest))
    with tracer.span("campaign", backend="process"):
        pass
    tracer.finish(registry=MetricsRegistry())
    stats = validate_trace(path)
    assert stats["manifest"]["backend"] == "process"
    assert stats["spans"] == 1


def test_validate_rejects_missing_manifest(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "end", "spans": 0}\n')
    with pytest.raises(TraceValidationError, match="manifest"):
        validate_trace(path)


def test_validate_rejects_truncated_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_trace(path)
    lines = path.read_text().splitlines()
    # Drop the end record: the file looks like a killed run.
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(TraceValidationError, match="no end record"):
        validate_trace(path)


def test_validate_rejects_bad_parent_order(tmp_path):
    path = tmp_path / "trace.jsonl"
    manifest = json.dumps(run_manifest("unit", 0))
    span = json.dumps(
        {
            "type": "span",
            "id": 1,
            "parent": 2,
            "name": "x",
            "wall_seconds": 0.0,
            "cpu_seconds": 0.0,
        }
    )
    path.write_text(manifest + "\n" + span + "\n")
    with pytest.raises(TraceValidationError, match="not allocated"):
        validate_trace(path)


def test_validate_rejects_missing_metrics(tmp_path):
    path = tmp_path / "trace.jsonl"
    manifest = json.dumps(run_manifest("unit", 0))
    end = json.dumps({"type": "end", "spans": 0})
    path.write_text(manifest + "\n" + end + "\n")
    with pytest.raises(TraceValidationError, match="metrics"):
        validate_trace(path)


def test_validate_rejects_garbage_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TraceValidationError, match="unparseable"):
        validate_trace(path)


def test_validate_rejects_span_count_mismatch(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_trace(path, n_children=1)
    lines = path.read_text().splitlines()
    end = json.loads(lines[-1])
    end["spans"] = 99
    path.write_text("\n".join(lines[:-1] + [json.dumps(end)]) + "\n")
    with pytest.raises(TraceValidationError, match="99 spans"):
        validate_trace(path)


def test_render_summary_lists_spans_and_counters():
    tracer = Tracer()
    with tracer.span("campaign"):
        with tracer.span("round"):
            pass
    registry = MetricsRegistry()
    registry.counter("campaign.rounds").inc(5)
    registry.counter("never.incremented")  # zero counters are elided
    registry.gauge("service.relays").set(2)
    text = render_summary(tracer, registry)
    assert "campaign" in text and "round" in text
    assert "campaign.rounds" in text and "5" in text
    assert "never.incremented" not in text
    assert "service.relays" in text


def test_maybe_profile_noop_without_path():
    with maybe_profile(None) as profiler:
        assert profiler is None


def test_maybe_profile_writes_pstats_and_text(tmp_path):
    import pstats

    path = tmp_path / "run.prof"
    with maybe_profile(path, limit=5) as profiler:
        assert profiler is not None
        sum(range(1000))
    assert path.exists()
    pstats.Stats(str(path))  # parses as a standard pstats dump
    text = path.with_suffix(".prof.txt").read_text()
    assert "cumulative" in text
