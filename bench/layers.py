"""Per-layer timing from outside the program: wrappers, spans, self time.

The traced run installs timing wrappers around each layer's public
entry points (module functions are rebound in every ``repro`` module
that imported them; methods are replaced on their class). Each wrapped
call records a span ``[name, start, end, parent]`` in memory; a layer's
self time is its spans' durations minus the durations of their direct
child spans. Marker spans (``bench.op`` and ``bench.start``/``bench.run``
around each timed segment, ``api.campaign`` around ``Campaign.run``) are
recorded for the trace file but are transparent: layer spans inside them
attach to the nearest enclosing layer span, and their time counts as
unattributed.

Nothing here changes program code on disk, and an untraced run never
calls :func:`install`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict

#: Every per-layer metric: (name, unit, better, end-to-end metric @
#: workload it should move). The order is the report order.
LAYER_METRICS = (
    ("tornet.synthesize_s", "s", "lower",
     "op_p50_ms @ paper-scenarios; wall_s @ shadow-loadbalance, continuous-service"),
    ("tornet.predraw_s", "s", "lower", "op_p50_ms, measurements_per_s @ paper-scenarios"),
    ("tornet.predraw_rows", "count", "lower", "count; identical under a pure speed change"),
    ("tornet.settle_s", "s", "lower", "op_p50_ms, measurements_per_s @ paper-scenarios"),
    ("tornet.settle_calls", "count", "lower", "count; identical under a pure speed change"),
    ("tornet.handshake_s", "s", "lower", "op_p50_ms @ paper-scenarios"),
    ("tornet.handshake_calls", "count", "lower", "count"),
    ("api.resolve_s", "s", "lower", "op_p50_ms @ paper-scenarios"),
    ("api.resolve_calls", "count", "lower", "count"),
    ("api.pack_s", "s", "lower", "op_p50_ms, wall_s @ continuous-service"),
    ("api.rounds", "count", "lower", "count; identical under a pure speed change"),
    ("api.jobs_packed", "count", "lower", "count; identical under a pure speed change"),
    ("api.slots_packed", "count", "lower", "count; identical under a pure speed change"),
    ("api.accept_ratio", "fraction", "higher", "sim_network_hours @ continuous-service, paper-scenarios"),
    ("core.run_many_s", "s", "lower", "op_p50_ms @ paper-scenarios"),
    ("core.run_many_calls", "count", "lower", "count"),
    ("core.stateful_s", "s", "lower", "op_p50_ms @ paper-scenarios"),
    ("core.stateful_specs", "count", "lower", "count"),
    ("core.allocate_s", "s", "lower", "wall_s @ continuous-service"),
    ("core.allocate_calls", "count", "lower", "count"),
    ("core.keygen_s", "s", "lower", "op_p50_ms @ paper-scenarios"),
    ("core.keygen_calls", "count", "lower", "count"),
    ("core.schedule_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("core.deployment_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("core.bwfile_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("core.bwfile_bytes", "bytes", "lower", "count"),
    ("kernel.compile_s", "s", "lower", "op_p50_ms @ paper-scenarios"),
    ("kernel.compiled", "count", "lower", "count; identical under a pure speed change"),
    ("kernel.execute_s", "s", "lower", "op_p50_ms, measurements_per_s @ paper-scenarios"),
    ("kernel.walk_rows", "count", "lower", "count; identical under a pure speed change"),
    ("kernel.fallback_ratio", "fraction", "lower", "op_p50_ms @ paper-scenarios"),
    ("kernel.analytic_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("kernel.analytic_jobs", "count", "lower", "count"),
    ("service.overhead_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("service.materialize_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("service.churn_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("service.churn_events", "count", "lower", "count"),
    ("service.checkpoint_s", "s", "lower", "op_p50_ms @ continuous-service"),
    ("service.journal_bytes", "bytes", "lower", "count"),
    ("service.journal_records", "count", "lower", "count"),
    ("service.resume_s", "s", "lower", "wall_s @ continuous-service"),
    ("shadow.horizon_s", "s", "lower", "wall_s @ shadow-loadbalance"),
    ("shadow.horizons", "count", "lower", "count"),
    ("shadow.sim_seconds", "s", "higher", "simulated seconds; identical under a pure speed change"),
    ("shadow.flow_table_s", "s", "lower", "wall_s @ shadow-loadbalance"),
    ("shadow.flow_table_builds", "count", "lower", "count"),
    ("shadow.waterfill_s", "s", "lower", "wall_s @ shadow-loadbalance"),
    ("shadow.waterfill_calls", "count", "lower", "count"),
    ("shadow.transfers", "count", "higher", "ttlb_1m_p50_s; identical under a pure speed change"),
    ("shadow.timeouts", "count", "lower", "ttlb_1m_p50_s; identical under a pure speed change"),
    ("torflow.scan_s", "s", "lower", "wall_s @ shadow-loadbalance"),
    ("obs.trace_overhead", "fraction", "lower", "none; bounds the trace's error"),
    ("obs.unattributed_s", "s", "lower", "time outside every wrapped call"),
)


class SpanRecorder:
    """In-memory spans and counts, recorded only while ``active``."""

    def __init__(self):
        self.active = False
        #: ``[name, start, end, parent_record, thread_ident, is_layer]``
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: bool = True) -> list:
        """Start a span; layer spans become the parent of later spans."""
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, threading.get_ident(), layer]
        self.spans.append(record)
        if layer:
            stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        if record[5]:
            self._stack().pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Layer self time: duration minus direct layer-child durations."""
        child = defaultdict(float)
        for name, start, end, parent, _, layer in self.spans:
            if layer and parent is not None and end is not None:
                child[id(parent)] += end - start
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            name, start, end, _, _, layer = record
            if layer and end is not None:
                totals[name] += (end - start) - child[id(record)]
        return dict(totals)

    def durations(self, name: str) -> float:
        return sum(end - start for n, start, end, *_ in self.spans
                   if n == name and end is not None)

    def write(self, path, origin: float) -> None:
        """One JSON line per span; times are seconds since ``origin``."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, thread, layer) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": None if end is None else round(end - origin, 7),
                    "parent": None if parent is None else index[id(parent)],
                    "thread": thread,
                    "layer": layer,
                }) + "\n")


def _wrap(recorder, name, fn, count=None, layer=True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        record = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(record)
        if count is not None:
            count(recorder, args, kwargs, result)
        return result

    return wrapper


def _calls(key):
    return lambda rec, args, kwargs, result: rec.count(key)


def _count_compiled(rec, args, kwargs, result):
    if result is not None:
        rec.count("kernel.compiled")


def _count_walk(rec, args, kwargs, result):
    compiled = args[1] if len(args) > 1 else kwargs.get("compiled", ())
    rec.count("kernel.walk_rows", sum(cm.duration for cm in compiled))


def _count_run_many(rec, args, kwargs, result):
    rec.count("core.run_many_calls")
    rec.count("core.run_many_specs", len(result))


def _count_analytic(rec, args, kwargs, result):
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs", ())
    rec.count("kernel.analytic_jobs", len(jobs))


def _count_bwfile(rec, args, kwargs, result):
    text = result if isinstance(result, str) else (args[-1] if args else kwargs.get("text", ""))
    rec.count("core.bwfile_bytes", len(text.encode("utf-8")))


def _count_churn_events(rec, args, kwargs, result):
    rec.count("service.churn_events", len(result))


def _count_horizon(rec, args, kwargs, result):
    config = args[0].network.config
    rec.count("shadow.horizons")
    rec.count("shadow.sim_seconds", config.sim_seconds + config.warmup_seconds)
    completed, timed_out = result.transfers_completed(), result.transfers_failed()
    rec.count("shadow.transfers", completed + timed_out)
    rec.count("shadow.timeouts", timed_out)


def _count_campaign(rec, args, kwargs, result):
    rounds = result.rounds
    rec.count("api.campaigns")
    rec.count("api.rounds", len(rounds))
    rec.count("api.jobs_packed", sum(len(r.measurements) for r in rounds))
    rec.count("api.slots_packed", sum(r.slots_packed for r in rounds))
    rec.count("api.accepted", sum(r.n_accepted for r in rounds))
    # Campaign wall (after resolve) minus the rounds' execute+fold wall:
    # the pack loop plus per-round bookkeeping.
    rec.count("api.pack_s", result.wall_seconds - sum(r.wall_seconds for r in rounds))


def install(recorder: SpanRecorder):
    """Wrap every layer entry point; returns a callable that undoes it."""
    from repro.api.campaign import Campaign
    from repro.api.scenario import Scenario
    from repro.core.allocation import allocate_capacity
    from repro.core.bwfile import BandwidthFile
    from repro.core.deployment import Deployment
    from repro.core.engine import MeasurementEngine
    from repro.core.messages import SigningIdentity
    from repro.core.schedule import PeriodSchedule
    from repro.kernel import backends
    from repro.kernel.analytic import run_analytic_round
    from repro.kernel.compile import compile_measurement
    from repro.service.churn import churn_events_for_period
    from repro.service.daemon import BwauthDaemon
    from repro.service.journal import ServiceJournal
    from repro.service.state import NetworkTable, Snapshot
    from repro.shadow.flows import build_flow_table, waterfill
    from repro.shadow.simulator import NetworkSimulator
    from repro.torflow.scanner import TorFlowScanner, torflow_weights
    from repro.tornet.columnar import noise_row
    from repro.tornet.network import synthesize_network
    from repro.tornet.relay import Relay
    from repro.tornet.relaycrypto import establish_circuit_key

    undo = []

    def function(fn, name, count=None):
        wrapped = _wrap(recorder, name, fn, count)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, fn))

    def method(cls, attr, name, count=None, layer=True):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(_wrap(recorder, name, original.__func__, count, layer))
        else:
            replacement = _wrap(recorder, name, original, count, layer)
        setattr(cls, attr, replacement)
        undo.append((cls, attr, original))

    function(synthesize_network, "tornet.synthesize")
    function(noise_row, "tornet.predraw", _calls("tornet.predraw_rows"))
    method(Relay, "settle_measured_walk", "tornet.settle", _calls("tornet.settle_calls"))
    function(establish_circuit_key, "tornet.handshake", _calls("tornet.handshake_calls"))
    method(Scenario, "resolve", "api.resolve", _calls("api.resolve_calls"))
    method(Campaign, "run", "api.campaign", _count_campaign, layer=False)
    method(MeasurementEngine, "run_many", "core.run_many", _count_run_many)
    method(MeasurementEngine, "run", "core.stateful", _calls("core.stateful_specs"))
    function(allocate_capacity, "core.allocate", _calls("core.allocate_calls"))
    method(SigningIdentity, "__init__", "core.keygen", _calls("core.keygen_calls"))
    for attr in ("build", "add_new_relay", "remove_relay"):
        method(PeriodSchedule, attr, "core.schedule")
    for attr in ("priors_for", "record_period"):
        method(Deployment, attr, "core.deployment")
    method(BandwidthFile, "serialize", "core.bwfile", _count_bwfile)
    method(BandwidthFile, "parse", "core.bwfile", _count_bwfile)
    function(compile_measurement, "kernel.compile", _count_compiled)
    for cls in vars(backends).values():
        if (isinstance(cls, type) and issubclass(cls, backends.KernelBackend)
                and "run" in cls.__dict__ and cls is not backends.KernelBackend):
            method(cls, "run", "kernel.execute", _count_walk)
    function(run_analytic_round, "kernel.analytic", _count_analytic)
    method(NetworkTable, "materialize", "service.materialize")
    function(churn_events_for_period, "service.churn", _count_churn_events)
    method(NetworkTable, "apply_churn", "service.churn")
    method(Snapshot, "to_dict", "service.checkpoint")
    method(ServiceJournal, "append", "service.checkpoint", _calls("service.journal_records"))
    method(BwauthDaemon, "resume", "service.resume")
    method(NetworkSimulator, "run", "shadow.horizon", _count_horizon)
    function(build_flow_table, "shadow.flow_table", _calls("shadow.flow_table_builds"))
    function(waterfill, "shadow.waterfill", _calls("shadow.waterfill_calls"))
    method(TorFlowScanner, "scan", "torflow.scan")
    function(torflow_weights, "torflow.scan")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(recorder: SpanRecorder, passes: int, pass_wall: float,
                  registry_delta: dict, extra_counts: dict) -> dict:
    """Per-pass per-layer metrics from one traced run's spans and counts."""
    selfs = recorder.self_times()
    counts = dict(recorder.counts)
    for key, value in extra_counts.items():
        counts[key] = counts.get(key, 0) + value
    per = 1.0 / max(1, passes)
    metrics = {}
    for name, _, _, _ in LAYER_METRICS:
        if name.endswith("_s") and name[:-2] in selfs:
            metrics[name] = selfs[name[:-2]] * per
        elif name in counts:
            metrics[name] = counts[name] * per
    measured = counts.get("api.jobs_packed", 0)
    metrics["api.accept_ratio"] = counts.get("api.accepted", 0) / measured if measured else 0.0
    specs = counts.get("core.run_many_specs", 0)
    fallback = registry_delta.get("kernel.specs.fallback", 0)
    metrics["kernel.fallback_ratio"] = fallback / specs if specs else 0.0
    period_wall = counts.get("service.period_wall_s")
    if period_wall:
        # Period wall outside the period's campaign: the service layer.
        metrics["service.overhead_s"] = (period_wall - recorder.durations("api.campaign")) * per
    metrics["obs.unattributed_s"] = (pass_wall - sum(selfs.values())) * per
    # Layers this workload never entered report zero.
    return {name: metrics.get(name, 0.0) for name, _, _, _ in LAYER_METRICS}
