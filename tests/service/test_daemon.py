"""The continuous daemon: period loop, churn end-to-end, publication."""

from __future__ import annotations

import pytest

from repro.api.execution import ExecutionConfig
from repro.core.bwfile import BandwidthFile
from repro.errors import ConfigurationError
from repro.service import BwauthDaemon, ServiceConfig, run_daemon
from repro.service.churn import ChurnConfig
from repro.service.daemon import status
from repro.service.journal import read_journal
from repro.units import DAY


def analytic_config(**overrides) -> ServiceConfig:
    defaults = dict(
        overrides={"n_relays": 12},
        periods=4,
        churn=ChurnConfig(seed=3, join_rate=2.0, leave_fraction=0.15),
        execution=ExecutionConfig(full_simulation=False),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_daemon_runs_every_period_and_publishes(tmp_path):
    out_dir = tmp_path / "v3bw"
    config = analytic_config(out_dir=str(out_dir))
    daemon = run_daemon(config, journal_path=tmp_path / "svc.jsonl")
    assert daemon.next_period == config.periods
    assert [k for k, _ in daemon.published] == list(range(config.periods))
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"v3bw-{k:05d}.txt" for k in range(config.periods)
    ]
    # Period k's bwfile timestamps the start of day k (Deployment's
    # period numbering survives the service layer).
    last = BandwidthFile.parse(daemon.published[-1][1])
    assert last.timestamp == (config.periods - 1) * DAY


def test_every_surviving_relay_is_measured_and_published():
    config = analytic_config()
    daemon = run_daemon(config)
    # The final membership (all churn applied) is exactly what the
    # final period measured and the final bandwidth file carries.
    final = BandwidthFile.parse(daemon.published[-1][1])
    assert set(final.capacities()) == set(daemon.table.fingerprints())
    assert daemon.period_stats[-1]["n_failed"] == 0


def test_churn_moves_at_least_ten_percent_of_the_network():
    config = analytic_config(
        churn=ChurnConfig(seed=3, join_rate=3.0, leave_fraction=0.2)
    )
    daemon = run_daemon(config)
    counters = daemon.registry.snapshot()["counters"]
    moved = counters["service.churn.joins"] + counters["service.churn.leaves"]
    assert moved >= 0.1 * 12
    # Joined relays that survived are measured like anyone else.
    joined = [
        fp for fp in daemon.table.fingerprints() if fp.startswith("joined")
    ]
    assert joined
    final = BandwidthFile.parse(daemon.published[-1][1])
    assert all(fp in final for fp in joined)


def test_journal_records_cover_the_run(tmp_path):
    journal_path = tmp_path / "svc.jsonl"
    config = analytic_config()
    daemon = run_daemon(config, journal_path=journal_path)
    records = read_journal(journal_path)
    kinds = [r["type"] for r in records]
    assert kinds[0] == "manifest"
    assert kinds[-1] == "end"
    assert records[-1]["complete"] is True
    assert kinds.count("period_started") == config.periods
    assert kinds.count("period_completed") == config.periods
    assert kinds.count("snapshot") == config.periods
    assert kinds.count("published") == config.periods
    assert kinds.count("churn") == config.periods - 1  # none before period 0
    assert kinds.count("round") == sum(
        s["rounds"] for s in daemon.period_stats
    )
    span_names = {r["name"] for r in records if r["type"] == "span"}
    assert span_names == {
        "service.period", "service.churn.applied", "service.publish",
    }
    # Snapshots embed the metrics registry; the last one has the totals.
    last_snapshot = [r for r in records if r["type"] == "snapshot"][-1]
    counters = last_snapshot["metrics"]["counters"]
    assert counters["service.periods"] == config.periods
    assert counters["service.churn.applied"] > 0


def test_published_sha_matches_journal(tmp_path):
    import hashlib

    journal_path = tmp_path / "svc.jsonl"
    daemon = run_daemon(analytic_config(), journal_path=journal_path)
    journaled = {
        r["period"]: r["sha256"]
        for r in read_journal(journal_path)
        if r["type"] == "published"
    }
    for k, text in daemon.published:
        assert journaled[k] == hashlib.sha256(text.encode()).hexdigest()


def test_priors_carry_forward_between_periods(tmp_path):
    journal_path = tmp_path / "svc.jsonl"
    run_daemon(analytic_config(), journal_path=journal_path)
    completed = [
        r for r in read_journal(journal_path) if r["type"] == "period_completed"
    ]
    # Period 0 has no priors; later periods inherit every surviving
    # relay's previous estimate.
    assert completed[0]["n_priors"] == 0
    for record in completed[1:]:
        assert record["n_priors"] > 0


def test_publish_cadence_respects_publish_every():
    config = analytic_config(periods=4, publish_every=2)
    daemon = run_daemon(config)
    assert [k for k, _ in daemon.published] == [1, 3]


def test_no_churn_keeps_membership_frozen():
    config = analytic_config(churn=None)
    daemon = run_daemon(config)
    assert len(daemon.table) == 12
    assert daemon.registry.snapshot()["counters"].get(
        "service.churn.applied", 0
    ) == 0


def test_simulated_clock_advances_by_period_seconds():
    config = analytic_config(periods=3, period_seconds=float(DAY))
    daemon = BwauthDaemon(config)
    daemon.run()
    assert daemon.clock.now() == 2 * DAY  # periods 1 and 2 each waited


def test_status_summarizes_a_journal(tmp_path):
    journal_path = tmp_path / "svc.jsonl"
    config = analytic_config()
    run_daemon(config, journal_path=journal_path)
    summary = status(journal_path)
    assert summary["scenario"] == "continuous-deployment"
    assert summary["periods_completed"] == config.periods
    assert summary["complete"] is True
    assert summary["resumes"] == 0


@pytest.mark.parametrize("field,value", [
    ("periods", 0),
    ("clock", "lunar"),
    # These used to construct: 2.5 periods ran 3 and True ran 1, a
    # publish_every of 1.5 published 1 file of 5, and a string seed
    # raised a bare TypeError from the daemon; "3" periods raised one
    # from __post_init__.
    ("periods", 2.5),
    ("periods", True),
    ("periods", "3"),
    ("publish_every", 1.5),
    ("period_seconds", float("nan")),
    ("period_seconds", float("inf")),
    ("seed", 1.5),
    ("seed", "x"),
])
def test_service_config_round_trips_and_validates(field, value):
    config = analytic_config()
    assert ServiceConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigurationError, match=field):
        ServiceConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        ServiceConfig.from_dict({**config.to_dict(), field: value})
    with pytest.raises(ConfigurationError):
        # Explicit-network scenarios cannot seed a durable table.
        ServiceConfig(scenario="nope").base_scenario()


def test_service_config_accepts_boundary_values():
    config = analytic_config(period_seconds=3600, seed=None, periods=1)
    assert ServiceConfig.from_dict(config.to_dict()) == config
    assert config.effective_seed == config.base_scenario().seed
