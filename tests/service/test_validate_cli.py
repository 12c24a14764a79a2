"""Journal validation and the ``python -m repro.service`` CLI."""

from __future__ import annotations

import json
import re

import pytest

from repro.api.execution import ExecutionConfig
from repro.service import BwauthDaemon, ServiceConfig, run_daemon
from repro.service.__main__ import main as service_main
from repro.service.churn import ChurnConfig
from repro.service.validate import (
    JournalValidationError,
    validate_journal,
    main as validate_main,
)


def _run(tmp_path, **overrides):
    defaults = dict(
        overrides={"n_relays": 10},
        periods=3,
        churn=ChurnConfig(seed=1, join_rate=2.0, leave_fraction=0.1),
        execution=ExecutionConfig(full_simulation=False),
    )
    defaults.update(overrides)
    journal_path = tmp_path / "svc.jsonl"
    daemon = run_daemon(ServiceConfig(**defaults), journal_path=journal_path)
    return daemon, journal_path


def test_valid_journal_passes_with_stats(tmp_path):
    daemon, journal_path = _run(tmp_path)
    stats = validate_journal(journal_path)
    assert stats["periods_completed"] == 3
    assert stats["snapshots"] == 3
    assert stats["published"] == 3
    assert stats["resumes"] == 0
    assert stats["complete"] is True
    assert stats["truncated_tail"] is False
    assert "service.churn.applied" in stats["span_names"]


def test_resumed_journal_passes(tmp_path):
    journal_path = tmp_path / "svc.jsonl"
    run_daemon(
        ServiceConfig(
            overrides={"n_relays": 10},
            periods=3,
            execution=ExecutionConfig(full_simulation=False),
        ),
        journal_path=journal_path,
        until_period=1,
    )
    resumed = BwauthDaemon.resume(journal_path)
    resumed.run()
    resumed.close()
    stats = validate_journal(journal_path)
    assert stats["resumes"] == 1
    assert stats["complete"] is True


def test_truncated_tail_is_tolerated_but_coherence_is_enforced(tmp_path):
    _, journal_path = _run(tmp_path)
    text = journal_path.read_text()
    journal_path.write_text(text + '{"type": "per')
    stats = validate_journal(journal_path)
    assert stats["truncated_tail"] is True

    # Corruption anywhere earlier is NOT tolerated.
    lines = text.splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]
    journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalValidationError):
        validate_journal(journal_path)


def test_out_of_order_periods_fail(tmp_path):
    _, journal_path = _run(tmp_path)
    records = [
        json.loads(line) for line in journal_path.read_text().splitlines()
    ]
    for record in records:
        if record["type"] in ("period_started", "period_completed"):
            record["period"] = {0: 0, 1: 2, 2: 1}[record["period"]]
    journal_path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n"
    )
    with pytest.raises(JournalValidationError, match="out of order|match"):
        validate_journal(journal_path)


def test_missing_manifest_fails(tmp_path):
    journal_path = tmp_path / "svc.jsonl"
    journal_path.write_text('{"type": "end", "complete": true}\n')
    with pytest.raises(JournalValidationError, match="manifest"):
        validate_journal(journal_path)


def test_validate_cli_exit_codes(tmp_path, capsys):
    _, journal_path = _run(tmp_path)
    assert validate_main([str(journal_path), "--expect-complete"]) == 0
    assert "valid flashflow-service/1" in capsys.readouterr().out
    journal_path.write_text('{"type": "end"}\n')
    assert validate_main([str(journal_path)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_service_cli_run_resume_status(tmp_path, capsys):
    journal = tmp_path / "svc.jsonl"
    out_dir = tmp_path / "v3bw"
    base = [
        "--journal", str(journal), "--stop-after", "2",
    ]
    code = service_main(
        [
            "run", "--periods", "3", "--analytic", "-o", "n_relays=8",
            "--out-dir", str(out_dir), *base,
        ]
    )
    assert code == 0
    first = json.loads(capsys.readouterr().out)
    assert first["next_period"] == 2
    assert first["complete"] is False

    assert service_main(["resume", "--journal", str(journal)]) == 0
    resumed = json.loads(capsys.readouterr().out)
    assert resumed["complete"] is True
    assert resumed["periods_run"] == [2]

    assert service_main(["status", "--journal", str(journal)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["complete"] is True
    assert summary["resumes"] == 1
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "v3bw-00000.txt", "v3bw-00001.txt", "v3bw-00002.txt",
    ]


def test_service_cli_reports_errors(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert service_main(["status", "--journal", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_service_cli_rejects_a_nan_join_rate(tmp_path, capsys):
    """``--join-rate nan`` used to run a deployment that drew no joins."""
    code = service_main(
        [
            "run", "--periods", "1", "--analytic", "-o", "n_relays=8",
            "--join-rate", "nan", "--journal", str(tmp_path / "svc.jsonl"),
        ]
    )
    assert code == 1
    assert "error: join_rate" in capsys.readouterr().err


def _unknown_churn_key(config):
    config["churn"]["bogus"] = 1


def _missing_periods(config):
    del config["periods"]


def _unknown_execution_key(config):
    config["execution"]["bogus"] = 1


def _misspelt_config_key(config):
    config["publish_evry"] = config.pop("publish_every")


@pytest.mark.parametrize("command", ["resume", "status"])
@pytest.mark.parametrize("corrupt,message", [
    (_unknown_churn_key, "churn config key.*'bogus'"),
    (_missing_periods, "missing 'periods'"),
    (_unknown_execution_key, "execution config key.*'bogus'"),
    (_misspelt_config_key, "service config key.*'publish_evry'"),
], ids=[
    "unknown-churn-key", "missing-periods", "unknown-execution-key",
    "misspelt-config-key",
])
def test_malformed_journal_config_is_an_error_not_a_traceback(
    tmp_path, capsys, command, corrupt, message
):
    """A journal whose config cannot load used to kill ``resume`` and
    ``status`` with a ``TypeError`` or ``KeyError`` traceback, and a
    misspelt key was ignored: ``publish_evry`` resumed publishing every
    period."""
    _, journal_path = _run(tmp_path)
    records = [
        json.loads(line) for line in journal_path.read_text().splitlines()
    ]
    for record in records:
        if record.get("config") is not None:
            corrupt(record["config"])
    journal_path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n"
    )
    assert service_main([command, "--journal", str(journal_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(message, err), err
    with pytest.raises(
        JournalValidationError, match=f"unloadable snapshot: .*{message}"
    ):
        validate_journal(journal_path)


def _drop_next_period(snapshot):
    del snapshot["next_period"]


def _drop_table(snapshot):
    del snapshot["table"]


def _drop_rows(snapshot):
    del snapshot["table"]["rows"]


@pytest.mark.parametrize("command", ["resume", "status"])
@pytest.mark.parametrize("corrupt,message", [
    (_drop_next_period, "snapshot is missing 'next_period'"),
    (_drop_table, "snapshot is missing 'table'"),
    (_drop_rows, "network table is missing 'rows'"),
], ids=["next-period", "table", "rows"])
def test_snapshot_missing_a_key_is_an_error_not_a_traceback(
    tmp_path, capsys, command, corrupt, message
):
    """A snapshot record without ``next_period``, ``table`` or the
    table's ``rows`` used to kill ``resume`` and ``status`` with a
    ``KeyError`` traceback, and the validator said only
    ``unloadable snapshot: 'table'``."""
    _, journal_path = _run(tmp_path)
    records = [
        json.loads(line) for line in journal_path.read_text().splitlines()
    ]
    for record in records:
        if record["type"] == "snapshot":
            corrupt(record)
    journal_path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n"
    )
    assert service_main([command, "--journal", str(journal_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err, err
    assert "Traceback" not in err
    with pytest.raises(
        JournalValidationError, match=f"unloadable snapshot: {message}"
    ):
        validate_journal(journal_path)
