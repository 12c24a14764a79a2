"""``repro.service`` -- the continuous bwauth daemon (ROADMAP item 1).

FlashFlow is deployed as a long-running measurement *service*: a
coordinator that measures the whole Tor network every period, forever,
publishing v3bw weight files as relays join and leave. This package is
that service shape for the reproduction:

- :mod:`repro.service.daemon` -- the asyncio scheduler loop
  (:class:`BwauthDaemon`): ticks periods on a simulated or wall clock,
  runs each period's :class:`repro.api.Campaign` off the event loop in
  an executor, ages priors through
  :class:`repro.core.deployment.Deployment`, and publishes bandwidth
  files on a schedule;
- :mod:`repro.service.churn` -- deterministic seeded relay
  join/leave/capacity-change event streams, applied between periods to
  the daemon's network table;
- :mod:`repro.service.state` -- the daemon's durable state
  (:class:`ServiceConfig`, :class:`NetworkTable`, :class:`Snapshot`):
  everything a killed daemon needs to resume producing **bit-identical**
  remaining periods;
- :mod:`repro.service.journal` -- the ``flashflow-service/1`` record
  grammar (manifest, period/churn/round/publication records, inline
  snapshots at period boundaries) on :mod:`repro.obs`'s one JSONL log:
  every line flushed, so a killed daemon leaves a valid prefix;
- :mod:`repro.service.validate` -- the journal's period-coherence
  grammar, run by the one log validator
  ``python -m repro.obs.validate`` (CI ``service-smoke``).

Run it with ``python -m repro.service run|resume|status``.
"""

from repro.service.churn import ChurnConfig, ChurnEvent, churn_events_for_period
from repro.service.clock import SimulatedClock, WallClock
from repro.service.daemon import BwauthDaemon, run_daemon
from repro.service.journal import ServiceJournal, read_journal
from repro.service.state import (
    NetworkTable,
    RelayRow,
    ServiceConfig,
    Snapshot,
)

__all__ = [
    "BwauthDaemon",
    "ChurnConfig",
    "ChurnEvent",
    "NetworkTable",
    "RelayRow",
    "ServiceConfig",
    "ServiceJournal",
    "SimulatedClock",
    "Snapshot",
    "WallClock",
    "churn_events_for_period",
    "read_journal",
    "run_daemon",
]
