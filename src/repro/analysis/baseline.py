"""The grandfathered-findings baseline: strict from day one.

``.ff-lint-baseline.json`` records every finding that predates the lint
(or is individually justified) so ``python -m repro.analysis --strict``
can fail on *new* findings immediately without first boiling the ocean.
Every entry carries a mandatory non-empty ``reason`` -- the baseline is
a ledger of justified exceptions, not an unexplained mute button -- and
CI self-checks that invariant on every push.

Entries match findings on ``(path, code, context)`` where ``context``
is the stripped source line, so unrelated edits that shift line numbers
do not invalidate the baseline; the recorded ``line`` is informational.
``--update-baseline`` re-runs the lint and rewrites the file from the
current findings, preserving reasons of entries that still match and
pruning entries whose findings were fixed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.analysis.core import Finding

SCHEMA = "ff-lint-baseline/1"


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding and why it is acceptable."""

    code: str
    path: str
    line: int
    context: str
    reason: str

    def key(self) -> tuple[str, str, str]:
        return (self.path, self.code, self.context)


class BaselineError(ValueError):
    """The baseline file is malformed (schema, fields, empty reasons)."""


def load_baseline(path: Path) -> list[BaselineEntry]:
    """Load and validate the baseline; a missing file is an empty one."""
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise BaselineError(f"{path}: expected schema {SCHEMA!r}")
    entries = []
    for i, raw in enumerate(data.get("entries", [])):
        missing = {"code", "path", "line", "context", "reason"} - set(raw)
        if missing:
            raise BaselineError(
                f"{path}: entry {i} missing field(s) {sorted(missing)}"
            )
        entries.append(
            BaselineEntry(
                code=raw["code"], path=raw["path"], line=int(raw["line"]),
                context=raw["context"], reason=str(raw["reason"]),
            )
        )
    return entries


def check_reasons(entries: list[BaselineEntry]) -> list[BaselineEntry]:
    """Entries whose mandatory reason is empty (CI fails on any)."""
    return [e for e in entries if not e.reason.strip()]


def save_baseline(path: Path, entries: list[BaselineEntry]) -> None:
    ordered = sorted(entries, key=lambda e: (e.path, e.line, e.code))
    payload = {"schema": SCHEMA, "entries": [asdict(e) for e in ordered]}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def match_baseline(
    findings: list[Finding], entries: list[BaselineEntry]
) -> tuple[list[Finding], list[BaselineEntry], list[BaselineEntry]]:
    """Split findings against the baseline.

    Returns ``(new_findings, matched_entries, stale_entries)``. Matching
    is by ``(path, code, context)`` with multiplicity: two identical
    lines need two entries. Stale entries (matching no current finding)
    mean the violation was fixed -- ``--update-baseline`` prunes them,
    and ``--strict`` reports them so the baseline only ever shrinks
    deliberately.
    """
    pool: dict[tuple[str, str, str], list[BaselineEntry]] = {}
    for entry in entries:
        pool.setdefault(entry.key(), []).append(entry)
    new_findings: list[Finding] = []
    matched: list[BaselineEntry] = []
    for finding in findings:
        bucket = pool.get(finding.key())
        if bucket:
            matched.append(bucket.pop())
        else:
            new_findings.append(finding)
    stale = [entry for bucket in pool.values() for entry in bucket]
    return new_findings, matched, stale


def updated_baseline(
    findings: list[Finding], entries: list[BaselineEntry]
) -> list[BaselineEntry]:
    """The baseline that exactly covers ``findings``.

    Reasons of surviving entries are preserved; brand-new findings get
    an empty reason that *must* be filled in by hand before the file
    passes the reason self-check.
    """
    pool: dict[tuple[str, str, str], list[BaselineEntry]] = {}
    for entry in entries:
        pool.setdefault(entry.key(), []).append(entry)
    updated = []
    for finding in findings:
        bucket = pool.get(finding.key())
        # Findings and entries are both in file order, so take the
        # first: a shared context line keeps each occurrence's reason.
        reason = bucket.pop(0).reason if bucket else ""
        updated.append(
            BaselineEntry(
                code=finding.code, path=finding.path, line=finding.line,
                context=finding.context, reason=reason,
            )
        )
    return updated
