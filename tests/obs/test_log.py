"""One JSONL log for traces and journals: writer, torn-tail rule, checks.

Traces and the daemon's journals are written by one
:class:`~repro.obs.export.JsonlLog`, read by one
:func:`~repro.obs.export.read_log` and checked by one validator. These
tests pin what the two kinds of log share: a malformed field is a
schema error naming its line, never a traceback; only a final line
without its newline is torn, and the validator, the journal reader and
a resume agree on it; and a log cut at any byte either validates or
raises the schema error, while a resume from any cut publishes the
files an uninterrupted deployment does.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import Campaign, ExecutionConfig, get_scenario
from repro.errors import ConfigurationError
from repro.obs.validate import TraceValidationError, validate_trace
from repro.obs.validate import main as validate_main
from repro.service import BwauthDaemon, ServiceConfig, run_daemon
from repro.service.journal import read_journal
from repro.service.validate import JournalValidationError, validate_journal


def _deployment(periods: int = 2) -> ServiceConfig:
    """A 5-relay analytic ``continuous-deployment`` with its churn."""
    return ServiceConfig(
        overrides={"n_relays": 5}, periods=periods,
        execution=ExecutionConfig(full_simulation=False),
    )


@pytest.fixture(scope="module")
def journal(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("journal") / "svc.jsonl"
    run_daemon(_deployment(), journal_path=path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def published() -> dict[int, str]:
    """What an uninterrupted, unjournaled deployment publishes."""
    return dict(run_daemon(_deployment()).published)


@pytest.fixture(scope="module")
def trace(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    scenario = get_scenario("fig06-accuracy", n_relays=4)
    Campaign(scenario, ExecutionConfig(trace=str(path))).run()
    return path.read_bytes()


def _line_ends(data: bytes) -> list[int]:
    """The offset just past each newline."""
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


# ----------------------------------------------------------------------
# Mistyped fields are schema errors naming the line
# ----------------------------------------------------------------------

def _set(key, value):
    def mutate(record):
        record[key] = value
    return mutate


def _set_config_periods(record):
    record["config"]["periods"] = str(record["config"]["periods"])


def _float_span_count(record):
    record["spans"] = float(record["spans"])


#: (log, fields of the record to mutate, mutation). Each case crashed
#: the validator with a traceback or validated.
MISTYPED = [
    ("trace", {"type": "span"}, _set("wall_seconds", "1")),
    ("trace", {"type": "span"}, _set("cpu_seconds", math.inf)),
    ("trace", {"type": "span"}, _set("wall_seconds", True)),
    ("trace", {"type": "span", "parent": None}, _set("id", True)),
    ("trace", {"type": "span"}, _set("parent", True)),
    ("trace", {"type": "span"}, _set("name", 5)),
    ("trace", {"type": "end"}, _float_span_count),
    ("journal", {"type": "span"}, _set("wall_seconds", "1")),
    ("journal", {"type": "span"}, _set("wall_seconds", math.nan)),
    ("journal", {"type": "span"}, _set("name", ["service.publish"])),
    ("journal", {"type": "manifest"}, _set("config", [1])),
    ("journal", {"type": "manifest"}, _set_config_periods),
    ("journal", {"type": "period_started"}, _set("period", False)),
    ("journal", {"type": "round"}, _set("period", 0.0)),
    ("journal", {"type": "snapshot"}, _set("next_period", "1")),
]


def _mutated(data: bytes, where: dict, mutate) -> tuple[bytes, int]:
    """``data`` with the first record matching ``where`` mutated, and
    that record's line number."""
    lines = data.decode("utf-8").splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if all(record.get(key) == value for key, value in where.items()):
            mutate(record)
            lines[index] = json.dumps(record)
            return ("\n".join(lines) + "\n").encode("utf-8"), index + 1
    raise AssertionError(f"no record matches {where}")


@pytest.mark.parametrize(
    "log, where, mutate", MISTYPED,
    ids=[
        "trace-wall-string", "trace-cpu-inf", "trace-wall-bool",
        "trace-id-bool", "trace-parent-bool", "trace-name-int",
        "trace-end-count-float", "journal-wall-string", "journal-wall-nan",
        "journal-name-list", "journal-config-list",
        "journal-config-periods-string", "journal-period-bool",
        "journal-period-float", "journal-next-period-string",
    ],
)
def test_mistyped_field_is_a_schema_error_naming_the_line(
    tmp_path, journal, trace, log, where, mutate
):
    data, lineno = _mutated(trace if log == "trace" else journal, where, mutate)
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    error, validate = (
        (TraceValidationError, validate_trace) if log == "trace"
        else (JournalValidationError, validate_journal)
    )
    with pytest.raises(error, match=rf"^line {lineno}: "):
        validate(path)


@pytest.mark.parametrize("log", ["trace", "journal"])
def test_cli_reports_a_mistyped_time_without_a_traceback(
    tmp_path, capsys, journal, trace, log
):
    """``python -m repro.obs.validate`` validates either kind of log."""
    data, lineno = _mutated(
        trace if log == "trace" else journal, {"type": "span"},
        _set("wall_seconds", "1"),
    )
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    assert validate_main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: line {lineno}: span wall_seconds '1'")
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# One torn-tail rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "tail", ['{"type": "period_sta\n', "\n"], ids=["unparseable", "blank"]
)
def test_validator_reader_and_resume_agree_on_a_bad_final_line(
    tmp_path, tail
):
    """A complete final line that is not a record is an error everywhere.

    The validator used to call the unparseable line a truncated tail
    while resume appended after it, leaving a journal that failed
    mid-file; the reader and resume accepted a blank final line the
    validator rejected.
    """
    path = tmp_path / "svc.jsonl"
    run_daemon(_deployment(periods=3), journal_path=path, until_period=1)
    data = path.read_bytes() + tail.encode("utf-8")
    path.write_bytes(data)
    bad_line = f"^line {len(data.splitlines())}: "
    with pytest.raises(JournalValidationError, match=bad_line):
        validate_journal(path)
    with pytest.raises(JournalValidationError, match=bad_line):
        read_journal(path)
    with pytest.raises(JournalValidationError, match=bad_line):
        BwauthDaemon.resume(path)
    assert path.read_bytes() == data


@pytest.mark.parametrize("cut", [1, 20], ids=["before-newline", "mid-line"])
def test_trace_with_a_torn_tail_is_rejected(tmp_path, trace, cut):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(trace[:-cut])
    with pytest.raises(TraceValidationError, match="torn final line"):
        validate_trace(path)


# ----------------------------------------------------------------------
# A cut at any byte
# ----------------------------------------------------------------------

def test_journal_cut_at_any_byte_validates_once_its_manifest_is_whole(
    tmp_path, journal
):
    """Every line boundary, each boundary +-1, and every fourth offset
    between them (the reader never parses a torn tail, so interior
    offsets of one line read alike)."""
    ends = _line_ends(journal)
    offsets = set(range(0, len(journal) + 1, 4))
    offsets.update(o + d for o in [0, *ends] for d in (-1, 0, 1))
    path = tmp_path / "cut.jsonl"
    for offset in sorted(o for o in offsets if 0 <= o <= len(journal)):
        path.write_bytes(journal[:offset])
        if offset < ends[0]:
            with pytest.raises(JournalValidationError, match="no complete"):
                validate_journal(path)
        else:
            stats = validate_journal(path)
            assert stats["complete"] is (offset == len(journal)), offset


def test_trace_cut_at_any_byte_is_a_schema_error(tmp_path, trace):
    path = tmp_path / "cut.jsonl"
    for offset in range(len(trace)):
        path.write_bytes(trace[:offset])
        with pytest.raises(TraceValidationError):
            validate_trace(path)
    path.write_bytes(trace)
    assert validate_trace(path)["complete"] is True


def test_resume_from_any_cut_refuses_or_publishes_identical_files(
    tmp_path, journal, published
):
    """At every line boundary, each boundary -1, and one offset inside
    each line, a resume either finds no snapshot or finishes the
    deployment with the uninterrupted run's files, leaving a complete
    journal."""
    ends = _line_ends(journal)
    starts = [0, *ends[:-1]]
    offsets = {*ends, *(end - 1 for end in ends)}
    offsets.update((start + end) // 2 for start, end in zip(starts, ends))
    path = tmp_path / "cut.jsonl"
    resumed_at = set()
    for offset in sorted(offsets):
        data = journal[:offset]
        path.write_bytes(data)
        try:
            daemon = BwauthDaemon.resume(path)
        except ConfigurationError as exc:
            assert "no complete snapshot" in str(exc)
            assert path.read_bytes() == data
            continue
        first = daemon.next_period
        daemon.run()
        daemon.close()
        resumed_at.add(first)
        assert daemon.published == [
            (k, published[k]) for k in range(first, len(published))
        ], offset
        assert validate_journal(path)["complete"] is True, offset
    assert resumed_at == {1, 2}
