"""Suppression grammar, FF000 hygiene, and the baseline round-trip."""

import json
from pathlib import Path

from repro.analysis import (
    load_baseline,
    match_baseline,
    run_paths,
    save_baseline,
)
from repro.analysis.baseline import (
    BaselineEntry,
    BaselineError,
    check_reasons,
    updated_baseline,
)

import pytest

BAD = """\
import os

def payload():
    return os.urandom(16)
"""


def _write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _lint(tmp_path: Path):
    return run_paths([tmp_path / "src"], root=tmp_path)


# ----------------------------------------------------------- suppressions

def test_suppression_with_reason_silences_next_line(tmp_path):
    src = (
        "import os\n\n"
        "def payload():\n"
        "    # ff-lint: allow[FF003] reason=fixture exercises the grammar\n"
        "    return os.urandom(16)\n"
    )
    _write(tmp_path, "src/repro/core/s.py", src)
    assert _lint(tmp_path) == []


def test_trailing_suppression_covers_its_own_line(tmp_path):
    src = (
        "import os\n\n"
        "def payload():\n"
        "    return os.urandom(16)"
        "  # ff-lint: allow[FF003] reason=trailing form\n"
    )
    _write(tmp_path, "src/repro/core/t.py", src)
    assert _lint(tmp_path) == []


def test_suppression_without_reason_is_ff000_and_suppresses_nothing(tmp_path):
    src = (
        "import os\n\n"
        "def payload():\n"
        "    # ff-lint: allow[FF003]\n"
        "    return os.urandom(16)\n"
    )
    _write(tmp_path, "src/repro/core/nr.py", src)
    codes = sorted(f.code for f in _lint(tmp_path))
    assert codes == ["FF000", "FF003"]


def test_suppression_with_unknown_code_is_ff000(tmp_path):
    src = (
        "import os\n\n"
        "def payload():\n"
        "    # ff-lint: allow[FF999] reason=no such rule\n"
        "    return os.urandom(16)\n"
    )
    _write(tmp_path, "src/repro/core/uk.py", src)
    codes = sorted(f.code for f in _lint(tmp_path))
    assert codes == ["FF000", "FF003"]


def test_suppression_only_silences_named_codes(tmp_path):
    src = (
        "import os\n\n"
        "def payload():\n"
        "    # ff-lint: allow[FF002] reason=wrong code on purpose\n"
        "    return os.urandom(16)\n"
    )
    _write(tmp_path, "src/repro/core/wc.py", src)
    assert [f.code for f in _lint(tmp_path)] == ["FF003"]


def test_unparsable_file_is_ff000_not_a_crash(tmp_path):
    _write(tmp_path, "src/repro/core/syn.py", "def broken(:\n")
    findings = _lint(tmp_path)
    assert [f.code for f in findings] == ["FF000"]
    assert "unparsable" in findings[0].message


# --------------------------------------------------------------- baseline

def test_baseline_round_trip_add_fix_prune(tmp_path):
    target = _write(tmp_path, "src/repro/core/b.py", BAD)
    baseline_path = tmp_path / ".ff-lint-baseline.json"

    # 1. Grandfather the finding.
    findings = _lint(tmp_path)
    assert [f.code for f in findings] == ["FF003"]
    entries = updated_baseline(findings, [])
    assert len(entries) == 1 and entries[0].reason == ""
    entries = [BaselineEntry(**{**entries[0].__dict__, "reason": "legacy"})]
    save_baseline(baseline_path, entries)

    # 2. Reloaded baseline matches: nothing new, nothing stale.
    loaded = load_baseline(baseline_path)
    new, matched, stale = match_baseline(_lint(tmp_path), loaded)
    assert (new, len(matched), stale) == ([], 1, [])

    # 3. Matching survives line drift (context-keyed, not line-keyed).
    target.write_text("# pushed down a line\n" + BAD, encoding="utf-8")
    new, matched, stale = match_baseline(_lint(tmp_path), loaded)
    assert (new, len(matched), stale) == ([], 1, [])

    # 4. Fix the violation: the entry goes stale and update prunes it.
    target.write_text("def payload():\n    return b'x' * 16\n",
                      encoding="utf-8")
    findings = _lint(tmp_path)
    new, matched, stale = match_baseline(findings, loaded)
    assert (new, matched, len(stale)) == ([], [], 1)
    assert updated_baseline(findings, loaded) == []


def test_baseline_matches_with_multiplicity(tmp_path):
    src = BAD + "\ndef payload2():\n    return os.urandom(16)\n"
    _write(tmp_path, "src/repro/core/m.py", src)
    findings = _lint(tmp_path)
    assert [f.code for f in findings] == ["FF003", "FF003"]
    # Identical context lines: one entry only covers one occurrence.
    one = updated_baseline(findings, [])[:1]
    new, matched, stale = match_baseline(findings, one)
    assert (len(new), len(matched), stale) == (1, 1, [])


def test_updated_baseline_preserves_reasons(tmp_path):
    _write(tmp_path, "src/repro/core/r.py", BAD)
    findings = _lint(tmp_path)
    old = [
        BaselineEntry(**{**e.__dict__, "reason": "kept"})
        for e in updated_baseline(findings, [])
    ]
    assert [e.reason for e in updated_baseline(findings, old)] == ["kept"]


def test_check_reasons_flags_empty(tmp_path):
    entries = [
        BaselineEntry(code="FF003", path="a.py", line=1, context="x",
                      reason=""),
        BaselineEntry(code="FF003", path="a.py", line=2, context="y",
                      reason="fine"),
    ]
    assert check_reasons(entries) == entries[:1]


def test_load_baseline_rejects_bad_schema_and_missing_fields(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": "wrong"}), encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(path)
    path.write_text(
        json.dumps({"schema": "ff-lint-baseline/1",
                    "entries": [{"code": "FF003"}]}),
        encoding="utf-8",
    )
    with pytest.raises(BaselineError):
        load_baseline(path)


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == []


def test_update_keeps_each_occurrences_reason(tmp_path):
    """Two findings on identical context lines keep their own reasons
    through an update; taking them from the end of the bucket swapped
    them on every run."""
    src = BAD + "\ndef payload2():\n    return os.urandom(16)\n"
    _write(tmp_path, "src/repro/core/m.py", src)
    findings = _lint(tmp_path)
    entries = [
        BaselineEntry(**{**entry.__dict__, "reason": reason})
        for entry, reason in zip(
            updated_baseline(findings, []), ["first", "second"]
        )
    ]
    for _ in range(2):
        entries = updated_baseline(findings, entries)
        assert [e.reason for e in entries] == ["first", "second"]
