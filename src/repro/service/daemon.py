"""The continuous bwauth daemon (ROADMAP item 1, paper §4.3 / §5).

:class:`BwauthDaemon` is the asyncio scheduler loop that turns the
one-shot campaign stack into a *service*: it ticks measurement periods
on a :mod:`clock <repro.service.clock>` (simulated or wall), and for
each period

1. derives and applies the period's deterministic churn
   (:mod:`repro.service.churn`) to the durable
   :class:`~repro.service.state.NetworkTable`,
2. materializes a fresh network from the table, builds a one-period
   :class:`~repro.api.scenario.Scenario` against it (priors from the
   :class:`~repro.core.deployment.Deployment` history), and runs the
   :class:`~repro.api.Campaign` off the event loop in an executor,
3. folds the result into the deployment (prior carryover + aging) and
   publishes a v3bw bandwidth file on the configured cadence,
4. journals everything (:mod:`repro.service.journal`) and snapshots
   the full durable state at the period boundary.

Determinism: the service layer reads clocks, never RNGs. Every stream
-- per-period campaign seeds and churn events -- re-derives
from ``(service seed, period index)`` labels, and each period's relays
are materialized fresh from plain rows, so period ``k`` is a pure
function of ``(config, table, history, k)``. That is why a daemon
killed at (or within) a period and resumed from its journal produces
bit-identical remaining bandwidth files, and why running with or
without a journal changes nothing but the file on disk.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import pathlib
import time
from contextlib import contextmanager
from dataclasses import replace

from repro.api.campaign import Campaign
from repro.api.events import CampaignObserver, RoundCompleted
from repro.core.bwfile import BandwidthFile
from repro.core.deployment import Deployment
from repro.errors import ConfigurationError, _is_int
from repro.obs import JsonlLog, MetricsRegistry, get_tracer
from repro.rng import seed_from
from repro.service.churn import churn_events_for_period
from repro.service.clock import make_clock
from repro.service.journal import last_snapshot, read_journal, service_manifest
from repro.service.state import NetworkTable, ServiceConfig, Snapshot

__all__ = ["BwauthDaemon", "run_daemon", "status"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def estimates_digest(estimates: dict[str, float]) -> str:
    """A canonical content hash of one period's estimates.

    ``repr`` of the float is the shortest round-tripping form, so two
    runs digest equal iff their estimates are bit-identical.
    """
    lines = "\n".join(f"{fp} {estimate!r}" for fp, estimate in sorted(estimates.items()))
    return _digest(lines)


class _RoundJournalObserver(CampaignObserver):
    """Streams each campaign round's aggregate outcome into the journal."""

    def __init__(self, daemon: "BwauthDaemon", period_index: int):
        self._daemon = daemon
        self._period = period_index

    def on_round_completed(self, event: RoundCompleted) -> None:
        record = event.record
        self._daemon._journal(
            {
                "type": "round",
                "period": self._period,
                "round": record.round_index,
                "first_slot": record.first_slot,
                "slots_packed": record.slots_packed,
                "measurements": len(record.measurements),
                "accepted": record.n_accepted,
                "retried": record.n_retried,
                "failed": record.n_failed,
                "wall_seconds": record.wall_seconds,
            }
        )


class BwauthDaemon:
    """A continuously operating bandwidth authority.

    Build one from a :class:`~repro.service.state.ServiceConfig` (fresh
    deployment) or :meth:`resume` (from a journal's last snapshot), then
    ``await run_async()`` -- or use :func:`run_daemon` from sync code.
    """

    def __init__(
        self,
        config: ServiceConfig,
        journal_path=None,
        clock=None,
        snapshot: Snapshot | None = None,
    ):
        self.config = config
        self.base = config.base_scenario()
        self.seed = config.effective_seed
        self.clock = clock if clock is not None else make_clock(config.clock)
        self.registry = MetricsRegistry()

        if snapshot is None:
            self.table = NetworkTable.from_network(
                self.base.network.build(self.seed)
            )
            self.deployment = Deployment(
                authority=self.base.team.build(self.base.params, self.seed),
                full_simulation=config.execution.full_simulation,
            )
            self.next_period = 0
            self.published_count = 0
        else:
            self.table = snapshot.table
            self.deployment = Deployment.restore(
                authority=self.base.team.build(self.base.params, self.seed),
                history=snapshot.history,
                completed_periods=snapshot.next_period,
                full_simulation=config.execution.full_simulation,
            )
            self.next_period = snapshot.next_period
            self.published_count = snapshot.published

        #: ``(period_index, serialized bandwidth file)`` per publication
        #: this daemon lifetime -- what the bit-identity tests compare.
        self.published: list[tuple[int, str]] = []
        #: Per-period error/failure stats this daemon lifetime.
        self.period_stats: list[dict] = []
        #: The most recent boundary snapshot (also journaled inline).
        self.snapshot: Snapshot | None = snapshot

        self._journal_writer: JsonlLog | None = None
        if journal_path is not None:
            if snapshot is None:
                self._journal_writer = JsonlLog(
                    journal_path, manifest=service_manifest(config)
                )
            else:
                self._journal_writer = JsonlLog(journal_path, resume=True)
                self._journal(
                    {"type": "resumed", "next_period": self.next_period}
                )

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def _journal(self, record: dict) -> None:
        if self._journal_writer is not None:
            self._journal_writer.append(record)

    @contextmanager
    def _span(self, name: str, period_index: int, **attrs):
        """Ambient tracer span + a ``span`` journal record on exit."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with get_tracer().span(name, period_index=period_index, **attrs):
            yield
        self._journal(
            {
                "type": "span",
                "name": name,
                "period": period_index,
                "wall_seconds": time.perf_counter() - wall0,
                "cpu_seconds": time.process_time() - cpu0,
                **attrs,
            }
        )

    def close(self) -> None:
        if self._journal_writer is not None:
            self._journal_writer.close()

    # ------------------------------------------------------------------
    # Resume / inspection
    # ------------------------------------------------------------------

    @classmethod
    def resume(cls, journal_path, clock=None) -> "BwauthDaemon":
        """Rebuild a killed daemon from its journal's last snapshot.

        A journal truncated mid-period resumes from the last *completed*
        period boundary and re-runs the interrupted period; because each
        period is a pure function of the snapshotted state, the re-run
        (and all remaining periods) are bit-identical to an
        uninterrupted deployment.
        """
        records = read_journal(journal_path)
        snapshot = last_snapshot(records)
        if snapshot is None:
            raise ConfigurationError(
                f"{journal_path}: no complete snapshot to resume from "
                "(the daemon died before its first period boundary); "
                "start a fresh run instead"
            )
        if snapshot.config is None:
            raise ConfigurationError(
                f"{journal_path}: snapshot carries no config"
            )
        return cls(
            snapshot.config,
            journal_path=journal_path,
            clock=clock,
            snapshot=snapshot,
        )

    # ------------------------------------------------------------------
    # The period loop
    # ------------------------------------------------------------------

    async def run_async(self, until_period: int | None = None) -> "BwauthDaemon":
        """Run periods until the deployment (or ``until_period``) ends.

        ``until_period`` stops *before* running that period index -- the
        clean kill-at-a-period-boundary used by the CI smoke job; resume
        later with :meth:`resume`.
        """
        target = self.config.periods
        if until_period is not None:
            target = min(target, until_period)
        loop = asyncio.get_running_loop()
        start = self.clock.now()
        first = self.next_period
        while self.next_period < target:
            k = self.next_period
            deadline = start + (k - first) * self.config.period_seconds
            delay = deadline - self.clock.now()
            if delay > 0:
                await self.clock.sleep(delay)
            await self._run_period(loop, k)
            self.next_period = k + 1
            self._checkpoint()
        self._journal(
            {
                "type": "end",
                "next_period": self.next_period,
                "complete": self.next_period >= self.config.periods,
            }
        )
        return self

    def run(self, until_period: int | None = None) -> "BwauthDaemon":
        """Sync wrapper: drive :meth:`run_async` on a fresh event loop."""
        return asyncio.run(self.run_async(until_period=until_period))

    async def _run_period(self, loop, k: int) -> None:
        period_seed = seed_from(self.seed, f"period-{k}")
        self._journal(
            {
                "type": "period_started",
                "period": k,
                "n_relays": len(self.table),
                "seed": period_seed,
            }
        )
        with self._span("service.period", k):
            if k > 0 and self.config.churn is not None:
                self._apply_churn(k)

            network = self.table.materialize()
            priors = self.deployment.priors_for(network)
            authority = self.base.team.build(self.base.params, period_seed)
            scenario = replace(
                self.base,
                network=network,
                team=authority,
                params=None,
                priors=priors,
                periods=1,
                seed=period_seed,
            )
            campaign = Campaign(scenario, self.config.execution)
            observers = (
                (_RoundJournalObserver(self, k),)
                if self._journal_writer is not None
                else ()
            )
            report = await loop.run_in_executor(
                None, functools.partial(campaign.run, observers)
            )

            # Fold into the deployment (the period's authority owns the
            # bwfile's generator identity; quick_team names it bwauth0
            # for every period, so published files stay uniform).
            self.deployment.authority = authority
            record = self.deployment.record_period(report.result)
            assert record.period_index == k

            if (k + 1) % self.config.publish_every == 0:
                self._publish(k, record.bwfile)

            stats = {
                "period": k,
                "n_relays": len(network),
                "n_priors": len(priors),
                "n_estimated": len(report.estimates),
                "n_failed": len(report.failures),
                "rounds": len(report.rounds),
                "measurements": report.measurements_run,
                "median_error_vs_truth": report.median_error_vs_truth(),
                "estimates_sha256": estimates_digest(report.estimates),
            }
            self.period_stats.append(stats)
            self._journal({"type": "period_completed", **stats})

            self.registry.counter("service.periods").inc()
            self.registry.counter("service.rounds").inc(len(report.rounds))
            self.registry.counter("service.measurements").inc(
                report.measurements_run
            )
            self.registry.gauge("service.relays").set(len(network))

    def _apply_churn(self, k: int) -> None:
        config = self.config.churn
        events = churn_events_for_period(config, k, self.table.fingerprints())
        with self._span("service.churn.applied", k, n_events=len(events)):
            table_counts = self.table.apply_churn(events)
        self._journal(
            {
                "type": "churn",
                "period": k,
                "events": [event.to_dict() for event in events],
                "table": table_counts,
                "n_relays": len(self.table),
            }
        )
        self.registry.counter("service.churn.applied").inc(len(events))
        for key in ("joins", "leaves", "capacity_changes"):
            self.registry.counter(f"service.churn.{key}").inc(
                table_counts[key]
            )

    def _publish(self, k: int, bwfile: BandwidthFile) -> None:
        with self._span("service.publish", k):
            text = bwfile.serialize()
            # The hardened parser round-trips every file we publish;
            # this is the serialize->parse->serialize idempotence
            # guarantee applied at the production choke point.
            if BandwidthFile.parse(text).serialize() != text:
                raise ConfigurationError(
                    f"period {k}: bandwidth file does not round-trip"
                )
            path = None
            if self.config.out_dir is not None:
                out_dir = pathlib.Path(self.config.out_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                path = out_dir / f"v3bw-{k:05d}.txt"
                path.write_text(text, encoding="utf-8")
            self.published.append((k, text))
            self.published_count += 1
        self._journal(
            {
                "type": "published",
                "period": k,
                "path": str(path) if path is not None else None,
                "relays": len(bwfile),
                "sha256": _digest(text),
            }
        )
        self.registry.counter("service.publish.files").inc()

    def _checkpoint(self) -> None:
        self.snapshot = Snapshot(
            next_period=self.next_period,
            table=NetworkTable(dict(self.table.rows)),
            history=self.deployment.history_snapshot(),
            published=self.published_count,
            config=self.config,
        )
        self._journal(
            {
                "type": "snapshot",
                **self.snapshot.to_dict(),
                "metrics": self.registry.snapshot(),
            }
        )


def run_daemon(
    config: ServiceConfig,
    journal_path=None,
    until_period: int | None = None,
    clock=None,
) -> BwauthDaemon:
    """Build and run a daemon to completion (sync front door)."""
    daemon = BwauthDaemon(config, journal_path=journal_path, clock=clock)
    try:
        return daemon.run(until_period=until_period)
    finally:
        daemon.close()


def status(journal_path) -> dict:
    """Summarize a journal: where the deployment is and how it got there."""
    records = read_journal(journal_path)
    manifest = next((r for r in records if r.get("type") == "manifest"), None)
    snapshot = last_snapshot(records)
    # By period, not by record: a daemon killed after a period completed
    # but before its snapshot re-runs that period when resumed.
    completed, published, churn = set(), set(), {}
    for record in records:
        kind, period = record.get("type"), record.get("period")
        if kind in ("period_completed", "published", "churn") and not _is_int(
            period
        ):
            raise ConfigurationError(
                f"{kind} record period {period!r} is not an int"
            )
        if kind == "period_completed":
            completed.add(period)
        elif kind == "published":
            published.add(period)
        elif kind == "churn":
            churn[period] = len(record.get("events", []))
    config = (manifest or {}).get("config", {})
    periods_configured = config.get("periods")
    next_period = snapshot.next_period if snapshot is not None else 0
    return {
        "schema": (manifest or {}).get("schema"),
        "scenario": config.get("scenario"),
        "periods_configured": periods_configured,
        "next_period": next_period,
        "periods_completed": len(completed),
        "published": len(published),
        "churn_events": sum(churn.values()),
        "relays": len(snapshot.table) if snapshot is not None else None,
        "resumes": sum(1 for r in records if r.get("type") == "resumed"),
        "complete": (
            periods_configured is not None
            and next_period >= periods_configured
        ),
        "records": len(records),
    }
