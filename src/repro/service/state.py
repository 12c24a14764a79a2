"""Durable daemon state: config, the network table, and snapshots.

The daemon's whole world state is deliberately *data*, never live
objects:

- :class:`ServiceConfig` names a registry scenario plus literal
  overrides (instead of holding a ``Scenario``), so the exact workload
  re-derives on resume from the journal manifest alone;
- :class:`NetworkTable` is the membership table -- one
  :class:`RelayRow` of ``(fingerprint, capacity, seed, nickname,
  flags, jitter)`` per relay -- from which each period's
  :class:`~repro.tornet.network.TorNetwork` is materialized afresh
  (:meth:`NetworkTable.materialize`). Churn mutates the table between
  periods; relays reboot at period boundaries (fresh jitter streams and
  token buckets), which is what makes a resumed daemon bit-identical to
  an uninterrupted one: period ``k``'s campaign is a pure function of
  ``(config, table state, prior history, k)``;
- :class:`Snapshot` bundles the table, the
  :class:`~repro.core.deployment.Deployment` prior history, and the
  period cursor -- everything :meth:`BwauthDaemon.resume
  <repro.service.daemon.BwauthDaemon>` needs. Snapshots are written
  inline into the journal at every period boundary.

No RNG lives in any of these objects: every stream the service layer
uses is re-derived from ``(seed, period index)`` labels, so there are
no generator positions to checkpoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

from repro.api.execution import ExecutionConfig
from repro.api.scenario import NetworkSpec, Scenario
from repro.errors import (
    ConfigurationError,
    _check_record,
    _is_finite_number,
    _is_int,
)
from repro.service.churn import ChurnConfig, ChurnEvent
from repro.tornet.network import _MIN_CAPACITY, TorNetwork
from repro.tornet.relay import Relay
from repro.units import DAY

__all__ = ["NetworkTable", "RelayRow", "ServiceConfig", "Snapshot"]

#: Snapshot / journal schema tag (bump on breaking changes, like
#: ``flashflow-trace/1``).
SERVICE_SCHEMA = "flashflow-service/1"

#: Execution knobs older journals still carry. None ever changed a
#: result, so a journal that records them resumes without them.
_RETIRED_EXECUTION_KEYS = frozenset(
    {"pipeline", "shards", "backend", "shadow_backend", "max_workers"}
)


def _require_keys(record, keys, what: str) -> None:
    """Raise :class:`ConfigurationError` naming the first key of ``keys``
    that ``record`` (a loaded JSON object) lacks, instead of the bare
    ``KeyError`` indexing it would raise."""
    if not isinstance(record, dict):
        raise ConfigurationError(
            f"{what} must be an object, got {type(record).__name__}"
        )
    for key in keys:
        if key not in record:
            raise ConfigurationError(f"{what} is missing {key!r}")


@dataclass(frozen=True)
class RelayRow:
    """Everything needed to materialize one relay, as plain data."""

    fingerprint: str
    capacity: float
    seed: int
    nickname: str = ""
    flags: tuple[str, ...] = ("Fast", "Running", "Valid")
    jitter: float = 0.02

    def to_list(self) -> list:
        return [
            self.fingerprint, self.capacity, self.seed, self.nickname,
            list(self.flags), self.jitter,
        ]

    @classmethod
    def from_list(cls, row: list) -> "RelayRow":
        fingerprint, capacity, seed, nickname, flags, jitter = row
        return cls(
            fingerprint=fingerprint,
            capacity=float(capacity),
            seed=int(seed),
            nickname=nickname,
            flags=tuple(flags),
            jitter=float(jitter),
        )

    def materialize(self) -> Relay:
        return Relay.with_capacity(
            fingerprint=self.fingerprint,
            capacity_bits=self.capacity,
            nickname=self.nickname,
            flags=frozenset(self.flags),
            seed=self.seed,
            jitter=self.jitter,
        )


class NetworkTable:
    """The daemon's durable network membership (insertion-ordered)."""

    def __init__(self, rows: dict[str, RelayRow] | None = None):
        self.rows: dict[str, RelayRow] = dict(rows or {})

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.rows

    def fingerprints(self) -> list[str]:
        return list(self.rows)

    @classmethod
    def from_network(cls, network: TorNetwork) -> "NetworkTable":
        """Capture a (synthesized) network as plain rows.

        Works for any network whose relays were built via
        :meth:`Relay.with_capacity`, as every generated network's are:
        the CPU model's forward limit *is* the intrinsic capacity, so the
        row round-trips to a bit-identical relay.
        """
        rows = {}
        for fp, relay in network.relays.items():
            rows[fp] = RelayRow(
                fingerprint=fp,
                capacity=relay.cpu.max_forward_bits,
                seed=relay.seed,
                nickname=relay.nickname,
                flags=tuple(sorted(relay.flags)),
                jitter=relay.jitter,
            )
        return cls(rows)

    def materialize(self) -> TorNetwork:
        """Fresh, stateful relay objects for one measurement period."""
        network = TorNetwork()
        for row in self.rows.values():
            network.add(row.materialize())
        return network

    def apply_churn(self, events: list[ChurnEvent]) -> dict[str, int]:
        """Fold a period's churn events in; returns applied counts."""
        counts = {"joins": 0, "leaves": 0, "capacity_changes": 0}
        for event in events:
            if event.kind == "leave":
                if self.rows.pop(event.fingerprint, None) is not None:
                    counts["leaves"] += 1
            elif event.kind == "join":
                if event.fingerprint in self.rows:
                    raise ConfigurationError(
                        f"churn join collides with existing relay "
                        f"{event.fingerprint!r}"
                    )
                self.rows[event.fingerprint] = RelayRow(
                    fingerprint=event.fingerprint,
                    capacity=float(event.capacity),
                    seed=int(event.seed),
                    nickname=event.fingerprint,
                )
                counts["joins"] += 1
            elif event.kind == "capacity":
                row = self.rows.get(event.fingerprint)
                if row is not None:
                    self.rows[event.fingerprint] = replace(
                        row,
                        capacity=max(
                            _MIN_CAPACITY, row.capacity * float(event.capacity)
                        ),
                    )
                    counts["capacity_changes"] += 1
            else:
                raise ConfigurationError(
                    f"unknown churn event kind {event.kind!r}"
                )
        return counts

    def to_dict(self) -> dict:
        return {"rows": [row.to_list() for row in self.rows.values()]}

    @classmethod
    def from_dict(cls, record: dict) -> "NetworkTable":
        _require_keys(record, ("rows",), "network table")
        rows = [RelayRow.from_list(row) for row in record["rows"]]
        return cls({row.fingerprint: row for row in rows})


@dataclass(frozen=True)
class ServiceConfig:
    """A continuous deployment, described entirely by literals.

    The scenario is named (a :func:`repro.api.register_scenario` entry)
    rather than held, and overrides must be JSON-literal factory kwargs
    -- that is what makes the config journalable and a resumed daemon's
    workload exactly re-derivable. The named scenario must generate its
    network from a :class:`~repro.api.scenario.NetworkSpec` (the seed
    membership table is captured from it) and must not carry an
    adversary mix (per-period networks are explicit).
    """

    scenario: str = "continuous-deployment"
    overrides: dict = field(default_factory=dict)
    #: Total measurement periods the deployment runs.
    periods: int = 5
    #: Wall pacing between period starts (the paper operates 24-hour
    #: periods); a simulated clock crosses it instantly.
    period_seconds: float = float(DAY)
    #: Publish a bandwidth file every N periods.
    publish_every: int = 1
    #: Directory bandwidth files are written to (None = keep in memory).
    out_dir: str | None = None
    churn: ChurnConfig | None = field(default_factory=ChurnConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: ``simulated`` or ``wall``.
    clock: str = "simulated"
    #: Master service seed; None = the base scenario's seed.
    seed: int | None = None

    def __post_init__(self) -> None:
        # A float count runs ceil(periods) periods and publishes on the
        # wrong boundaries; True runs as 1.
        for name in ("periods", "publish_every"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
        if not _is_finite_number(self.period_seconds) or self.period_seconds <= 0:
            raise ConfigurationError(
                "period_seconds must be a finite number > 0, got "
                f"{self.period_seconds!r}"
            )
        if self.seed is not None and not _is_int(self.seed):
            raise ConfigurationError(
                f"seed must be an integer or None, got {self.seed!r}"
            )
        if self.clock not in ("simulated", "wall"):
            raise ConfigurationError("clock must be 'simulated' or 'wall'")

    def base_scenario(self) -> Scenario:
        from repro.api.scenarios import get_scenario

        scenario = get_scenario(self.scenario, **self.overrides)
        if not isinstance(scenario.network, NetworkSpec):
            raise ConfigurationError(
                "the service needs a generated network (NetworkSpec) so "
                "the membership table can be captured and resumed"
            )
        if scenario.adversaries is not None:
            raise ConfigurationError(
                "adversary mixes are not supported by the service daemon "
                "(per-period networks are explicit)"
            )
        return scenario

    @property
    def effective_seed(self) -> int:
        return self.seed if self.seed is not None else self.base_scenario().seed

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "overrides": dict(self.overrides),
            "periods": self.periods,
            "period_seconds": self.period_seconds,
            "publish_every": self.publish_every,
            "out_dir": self.out_dir,
            "churn": self.churn.to_dict() if self.churn else None,
            "execution": {
                k: (str(v) if k == "trace" and v is not None else v)
                for k, v in asdict(self.execution).items()
            },
            "clock": self.clock,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ServiceConfig":
        _check_record(record, [f.name for f in fields(cls)], "service config")
        _require_keys(
            record, ("scenario", "periods", "period_seconds"), "service config"
        )
        churn = record.get("churn")
        execution = record.get("execution", {})
        _check_record(
            execution,
            [f.name for f in fields(ExecutionConfig)]
            + list(_RETIRED_EXECUTION_KEYS),
            "execution config",
        )
        execution = {
            key: value
            for key, value in execution.items()
            if key not in _RETIRED_EXECUTION_KEYS
        }
        return cls(
            scenario=record["scenario"],
            overrides=dict(record.get("overrides", {})),
            periods=record["periods"],
            period_seconds=record["period_seconds"],
            publish_every=record.get("publish_every", 1),
            out_dir=record.get("out_dir"),
            churn=ChurnConfig.from_dict(churn) if churn else None,
            execution=ExecutionConfig(**execution),
            clock=record.get("clock", "simulated"),
            seed=record.get("seed"),
        )


@dataclass
class Snapshot:
    """The daemon's complete durable state at a period boundary.

    ``next_period`` is the first period a resumed daemon must run;
    ``history`` is :meth:`Deployment.history_snapshot
    <repro.core.deployment.Deployment.history_snapshot>`; ``table`` is
    the membership entering ``next_period`` (pre-churn -- churn for
    period ``k`` is re-derived and applied when ``k`` runs).
    """

    next_period: int
    table: NetworkTable
    history: dict[str, tuple[float, int]] = field(default_factory=dict)
    published: int = 0
    config: ServiceConfig | None = None

    def to_dict(self) -> dict:
        return {
            "schema": SERVICE_SCHEMA,
            "next_period": self.next_period,
            "published": self.published,
            "history": {
                fp: [estimate, period]
                for fp, (estimate, period) in sorted(self.history.items())
            },
            "table": self.table.to_dict(),
            "config": self.config.to_dict() if self.config else None,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Snapshot":
        if record.get("schema") != SERVICE_SCHEMA:
            raise ConfigurationError(
                f"snapshot schema {record.get('schema')!r} is not "
                f"{SERVICE_SCHEMA!r}"
            )
        _require_keys(record, ("next_period", "table"), "snapshot")
        # Checked, not coerced: int("2") and int(2.7) resumed at period 2,
        # and int(True) at period 1, where the validator refuses all three.
        for name in ("next_period", "published"):
            value = record.get(name, 0)
            if not _is_int(value) or value < 0:
                raise ConfigurationError(
                    f"snapshot {name} must be an int >= 0, got {value!r}"
                )
        history = record.get("history", {})
        if not isinstance(history, dict):
            raise ConfigurationError(
                f"snapshot history must be an object, got {history!r}"
            )
        for fp, entry in history.items():
            if not (
                isinstance(entry, list) and len(entry) == 2
                and _is_finite_number(entry[0]) and _is_int(entry[1])
            ):
                raise ConfigurationError(
                    f"snapshot history[{fp!r}] must be [finite number, int], "
                    f"got {entry!r}"
                )
        config = record.get("config")
        return cls(
            next_period=record["next_period"],
            published=record.get("published", 0),
            history={
                fp: (float(estimate), period)
                for fp, (estimate, period) in history.items()
            },
            table=NetworkTable.from_dict(record["table"]),
            config=ServiceConfig.from_dict(config) if config else None,
        )
