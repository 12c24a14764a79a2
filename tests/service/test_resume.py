"""Checkpoint/resume determinism: the acceptance-criteria pins.

A daemon killed at a period boundary -- or mid-period, leaving a
truncated journal -- and resumed from its last snapshot must produce
**bit-identical** bandwidth files and per-period error stats for every
remaining period, and journaling itself must not perturb results.
"""

from __future__ import annotations

import json

import pytest

from repro.api.execution import ExecutionConfig
from repro.errors import ConfigurationError
from repro.service import BwauthDaemon, ServiceConfig, run_daemon
from repro.service.churn import ChurnConfig
from repro.service.daemon import status
from repro.service.journal import read_journal
from repro.service.validate import validate_journal

PERIODS = 4


def config(**overrides) -> ServiceConfig:
    defaults = dict(
        overrides={"n_relays": 12},
        periods=PERIODS,
        churn=ChurnConfig(seed=3, join_rate=2.0, leave_fraction=0.15,
                          capacity_change_fraction=0.2),
        execution=ExecutionConfig(full_simulation=False),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted deployment: the oracle every test compares to."""
    daemon = run_daemon(config())
    return {
        "published": dict(daemon.published),
        "stats": {s["period"]: s for s in daemon.period_stats},
        "members": sorted(daemon.table.fingerprints()),
        "history": daemon.deployment.history_snapshot(),
    }


def test_journaling_does_not_perturb_results(tmp_path, reference):
    daemon = run_daemon(config(), journal_path=tmp_path / "svc.jsonl")
    assert dict(daemon.published) == reference["published"]
    assert {s["period"]: s for s in daemon.period_stats} == reference["stats"]


@pytest.mark.parametrize("kill_at", [1, 2, 3])
def test_kill_at_boundary_resumes_bit_identical(tmp_path, reference, kill_at):
    journal_path = tmp_path / "svc.jsonl"
    first = run_daemon(config(), journal_path=journal_path,
                       until_period=kill_at)
    assert first.next_period == kill_at

    resumed = BwauthDaemon.resume(journal_path)
    assert resumed.next_period == kill_at
    resumed.run()
    resumed.close()

    published = dict(first.published)
    published.update(dict(resumed.published))
    assert published == reference["published"]

    stats = {s["period"]: s for s in first.period_stats}
    stats.update({s["period"]: s for s in resumed.period_stats})
    assert stats == reference["stats"]

    assert sorted(resumed.table.fingerprints()) == reference["members"]
    assert resumed.deployment.history_snapshot() == reference["history"]


def test_truncated_journal_resumes_from_last_boundary(tmp_path, reference):
    journal_path = tmp_path / "svc.jsonl"
    run_daemon(config(), journal_path=journal_path)

    # Simulate a kill mid-period 2: keep everything through period 1's
    # snapshot, a few period-2 records, then half a line.
    lines = journal_path.read_text().splitlines()
    snapshots = [i for i, line in enumerate(lines) if '"snapshot"' in line]
    cut = snapshots[1]  # the boundary after period 1
    kept = lines[: cut + 3]  # snapshot + the start of period 2
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text(
        "\n".join(kept) + "\n" + lines[cut + 3][: len(lines[cut + 3]) // 2]
    )

    resumed = BwauthDaemon.resume(truncated)
    assert resumed.next_period == 2  # periods 0-1 are durable
    resumed.run()
    resumed.close()

    for k in (2, 3):
        assert dict(resumed.published)[k] == reference["published"][k]
    assert {s["period"]: s for s in resumed.period_stats} == {
        k: reference["stats"][k] for k in (2, 3)
    }

    # The reopened journal is itself a valid, resumable record.
    records = read_journal(truncated)
    assert sum(1 for r in records if r["type"] == "resumed") == 1
    assert records[-1]["type"] == "end"
    assert records[-1]["complete"] is True


def test_resume_without_snapshot_is_an_error(tmp_path):
    journal_path = tmp_path / "svc.jsonl"
    daemon = BwauthDaemon(config(), journal_path=journal_path)
    daemon.close()  # died before the first period boundary
    with pytest.raises(ConfigurationError, match="no complete snapshot"):
        BwauthDaemon.resume(journal_path)


def test_double_resume_chains(tmp_path, reference):
    journal_path = tmp_path / "svc.jsonl"
    run_daemon(config(), journal_path=journal_path, until_period=1)
    second = BwauthDaemon.resume(journal_path)
    second.run(until_period=3)
    second.close()
    third = BwauthDaemon.resume(journal_path)
    third.run()
    third.close()
    assert dict(third.published) == {
        3: reference["published"][3]
    }
    records = read_journal(journal_path)
    assert sum(1 for r in records if r["type"] == "resumed") == 2


def _with_retired_execution_keys(execution: dict) -> dict:
    """An execution dict as older journals recorded it: ``backend``,
    ``shadow_backend`` and ``max_workers`` first (with values such a
    journal could carry), and ``pipeline``/``shards`` (always null)
    before ``trace``."""
    out = {"backend": "process", "shadow_backend": "stateful",
           "max_workers": 2}
    for key, value in execution.items():
        if key == "trace":
            out["pipeline"] = None
            out["shards"] = None
        out[key] = value
    return out


def test_journal_with_retired_execution_keys_resumes(tmp_path):
    """A ``flashflow-service/1`` journal whose manifest and snapshots
    carry the retired execution keys -- ``backend``, ``shadow_backend``,
    ``max_workers``, ``pipeline``, ``shards`` -- and whose manifest
    records a top-level ``backend`` resumes, validates, and publishes
    byte-identical bandwidth files."""
    reference_dir = tmp_path / "reference"
    run_daemon(config(out_dir=str(reference_dir)))

    out_dir = tmp_path / "resumed"
    journal_path = tmp_path / "svc.jsonl"
    run_daemon(config(out_dir=str(out_dir)), journal_path=journal_path,
               until_period=2)
    lines = []
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["type"] == "manifest":
            record["backend"] = "process"
        if record.get("config") is not None:
            record["config"]["execution"] = _with_retired_execution_keys(
                record["config"]["execution"]
            )
        lines.append(json.dumps(record))
    journal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = journal_path.read_text()
    assert text.count('"shards": null') == 3
    assert text.count('"max_workers": 2') == 3
    assert text.count('"backend": "process"') == 4
    validate_journal(journal_path)

    resumed = BwauthDaemon.resume(journal_path)
    assert resumed.next_period == 2
    resumed.run()
    resumed.close()

    names = sorted(path.name for path in reference_dir.iterdir())
    assert len(names) == PERIODS
    assert sorted(path.name for path in out_dir.iterdir()) == names
    for name in names:
        assert (out_dir / name).read_bytes() == \
            (reference_dir / name).read_bytes(), name
    summary = validate_journal(journal_path)
    assert summary["complete"] is True and summary["resumes"] == 1


def _with_schedule_fields(record: dict) -> dict:
    """A record as the daemon wrote it while it built a §4.3 schedule
    every period: ``schedule_slots_in_use`` in ``period_completed`` and
    the schedule's churn counts in ``churn``, in their old positions."""
    if record["type"] == "period_completed":
        out = {}
        for key, value in record.items():
            if key == "estimates_sha256":
                out["schedule_slots_in_use"] = record["rounds"] + 2
            out[key] = value
        return out
    if record["type"] == "churn":
        out = {}
        for key, value in record.items():
            if key == "n_relays":
                out["schedule"] = {**record["table"], "unslotted": 0}
            out[key] = value
        return out
    return record


def test_journal_with_schedule_fields_validates_and_resumes(tmp_path):
    """Journals written while the daemon journaled its unexecuted
    schedule still validate, summarize and resume byte-identically."""
    journal_path = tmp_path / "svc.jsonl"
    daemon = run_daemon(config(periods=3), journal_path=journal_path)
    legacy = tmp_path / "legacy.jsonl"
    records = [
        _with_schedule_fields(json.loads(line))
        for line in journal_path.read_text(encoding="utf-8").splitlines()
    ]
    lines = [json.dumps(record) for record in records]
    legacy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = legacy.read_text()
    assert text.count('"schedule_slots_in_use"') == 3
    assert text.count('"schedule": {') == 2

    assert validate_journal(legacy)["complete"] is True
    assert status(legacy) == status(journal_path)

    # Resume from the snapshot written at the period-2 boundary.
    cut = next(
        i for i, record in enumerate(records)
        if record["type"] == "snapshot" and record["next_period"] == 2
    )
    legacy.write_text("\n".join(lines[: cut + 1]) + "\n", encoding="utf-8")
    resumed = BwauthDaemon.resume(legacy)
    assert resumed.next_period == 2
    resumed.run()
    resumed.close()
    assert resumed.published == [(2, dict(daemon.published)[2])]
    assert validate_journal(legacy)["complete"] is True
