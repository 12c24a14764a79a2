"""Guard tests: tracing never perturbs results, disabled path stays null.

These are the ISSUE's acceptance guards: a traced campaign must be
bit-identical to an untraced one, and a campaign run without
``ExecutionConfig(trace=...)`` must leave the ambient null tracer
untouched (zero spans recorded anywhere).
"""

from __future__ import annotations

from repro.api import Campaign, ExecutionConfig, NetworkSpec, Scenario
from repro.obs import NULL_TRACER, get_tracer, validate_trace


def _scenario():
    return Scenario(
        name="obs-guard",
        network=NetworkSpec(n_relays=12),
        seed=11,
    )


def _execution(**kw):
    return ExecutionConfig(full_simulation=False, **kw)


def _measurement_rows(report):
    """Every measurement outcome, excluding wall-clock fields."""
    rows = []
    for record in report.rounds:
        for m in record.measurements:
            rows.append(
                (
                    m.period_index,
                    m.round_index,
                    m.slot_index,
                    m.fingerprint,
                    m.attempt,
                    m.planned_estimate,
                    m.estimate,
                    m.accepted,
                    m.retried,
                    m.failed,
                    m.failure_reason,
                    m.cells_checked,
                )
            )
    return rows


def test_traced_campaign_is_bit_identical_to_untraced(tmp_path):
    untraced = Campaign(_scenario(), _execution()).run()
    traced_campaign = Campaign(
        _scenario(), _execution(trace=str(tmp_path / "trace.jsonl"))
    )
    traced = traced_campaign.run()

    assert traced.estimates == untraced.estimates
    assert traced.failures == untraced.failures
    assert traced.slots_elapsed == untraced.slots_elapsed
    assert _measurement_rows(traced) == _measurement_rows(untraced)


def test_traced_campaign_writes_a_valid_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    campaign = Campaign(_scenario(), _execution(trace=str(path)))
    campaign.run()

    stats = validate_trace(path)
    assert stats["roots"] == 1
    names = set(stats["span_names"])
    assert {"campaign", "campaign.resolve", "period", "round"} <= names
    manifest = stats["manifest"]
    assert manifest["scenario"] == "obs-guard"
    assert manifest["seed"] == 11
    assert manifest["full_simulation"] is False
    assert "backend" not in manifest
    # The campaign keeps its recording tracer for post-run summaries.
    assert campaign.tracer is not NULL_TRACER
    assert campaign.tracer.wall_by_name()["campaign"] > 0.0
    # The ambient tracer was restored after the run.
    assert get_tracer() is NULL_TRACER


def test_untraced_campaign_records_zero_spans():
    campaign = Campaign(_scenario(), _execution())
    campaign.run()
    # No trace requested: the ambient tracer is the null singleton and
    # it accumulated nothing (its span tuple is immutable and empty).
    assert campaign.tracer is NULL_TRACER
    assert get_tracer() is NULL_TRACER
    assert NULL_TRACER.spans == ()


def test_cli_trace_flag_end_to_end(tmp_path, capsys):
    from repro.api.__main__ import main

    path = tmp_path / "cli-trace.jsonl"
    exit_code = main(
        [
            "fig06-accuracy",
            "--quiet",
            "--trace",
            str(path),
            "--metrics",
            "-o",
            "n_relays=10",
        ]
    )
    assert exit_code in (0, None)
    stats = validate_trace(path)
    assert stats["spans"] > 0 and stats["roots"] == 1
    err = capsys.readouterr().err
    assert "trace written to" in err
    assert "campaign" in err  # the --metrics summary table
