"""The three benchmark workloads, driven only through public APIs.

Every workload is a closed loop with one client: a run repeats
*passes* (a fixed unit of work) until its time is up, and each pass is
a sequence of *ops* issued back to back. Inputs derive from the
workload seed and the pass index alone, so a seed always yields the
same inputs and no pass repeats another's inputs. Seed 0 reproduces
the scenario registry's own seeds on pass 0; those outputs are pinned
in ``pins.json``.

Each op records its latency, the relay measurements it ran, content
digests of its outputs, and the correctness checks it failed. Checks
and digests are computed outside the timed segments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pathlib
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Input seeds of one workload seed are ``base + seed * STRIDE + index``.
STRIDE = 1000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    label: str
    latency_s: float = 0.0
    measurements: int = 0
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


@dataclass
class Pass:
    index: int
    ops: list = field(default_factory=list)
    #: Sum of the pass's timed segments (checks excluded).
    wall_s: float = 0.0
    #: Samples of the simulated statistics, taken on the first
    #: ``stat_passes`` passes only, so they depend on the seed alone.
    samples: dict = field(default_factory=dict)
    #: Per-layer counts only the workload can see (traced runs).
    counts: dict = field(default_factory=dict)


class Timer:
    """Times segments; in a traced run, records spans only inside them."""

    def __init__(self, recorder=None):
        self.recorder = recorder

    @contextmanager
    def segment(self, pass_: Pass, name: str = "bench.op"):
        box = [0.0]
        recorder = self.recorder
        if recorder is not None:
            recorder.active = True
            marker = recorder.open(name, layer=False)
        start = time.perf_counter()
        try:
            yield box
        finally:
            box[0] = time.perf_counter() - start
            pass_.wall_s += box[0]
            if recorder is not None:
                recorder.close(marker)
                recorder.active = False


def check_estimates(op: Op, estimates: dict, failures: dict, relays) -> None:
    """Every relay estimated or failed with a reason; estimates sane."""
    relays = set(relays)
    missing = relays - set(estimates) - set(failures)
    if missing:
        op.failures.append(f"{len(missing)} relays neither estimated nor failed")
    if set(estimates) & set(failures):
        op.failures.append("relays both estimated and failed")
    if any(not reason for reason in failures.values()):
        op.failures.append("failure without a reason")
    bad = [fp for fp, z in estimates.items() if not (math.isfinite(z) and z > 0)]
    if bad:
        op.failures.append(f"{len(bad)} estimates not finite and positive")


def summarize(passes: list, stat_passes: int) -> dict:
    """Simulated statistics over the first ``stat_passes`` passes."""
    merged = defaultdict(list)
    for p in passes[:stat_passes]:
        for key, values in p.samples.items():
            merged[key] += values
    if not merged:
        return {}
    stats = {"error_p95": statistics.quantiles(merged.pop("errors"), n=20, method="inclusive")[-1],
             "weight_error": statistics.median(merged.pop("weight_errors"))}
    stats.update({key: statistics.median(values) for key, values in merged.items()})
    return stats


# ---------------------------------------------------------------------------
# paper-scenarios


class PaperScenarios:
    """The seven small canned scenarios over consecutive seeds."""

    name = "paper-scenarios"
    #: Two passes pool 84 campaigns (about 2,000 relays) per seed.
    stat_passes = 2
    scenarios = (
        "fig06-accuracy", "background-traffic", "inflation-attack",
        "collusion-attack", "inflation-sweep", "multi-period-deployment",
        "shadow-measurement",
    )

    def params(self, small: bool) -> dict:
        return {"scenarios": list(self.scenarios), "seeds_per_pass": 1 if small else 6}

    def setup(self, params: dict) -> None:
        from repro.api import Campaign, default_execution_for, get_scenario

        self.base = {name: get_scenario(name).seed for name in self.scenarios}
        for name in self.scenarios:
            Campaign(get_scenario(name, seed=self.base[name] - 1),
                     default_execution_for(name)).run()

    def run_pass(self, params, seed, index, timer) -> Pass:
        from repro.api import Campaign, default_execution_for, get_scenario
        from repro.core.bwfile import BandwidthFile
        from repro.service.daemon import estimates_digest
        from repro.shadow.experiment import network_weight_error

        k = params["seeds_per_pass"]
        p = Pass(index)
        errors, weight_errors, hours = [], [], 0.0
        for j in range(k):
            for name in self.scenarios:
                scenario_seed = self.base[name] + seed * STRIDE + index * k + j
                op = Op(f"{name}-{scenario_seed}")
                with timer.segment(p) as seg:
                    campaign = Campaign(get_scenario(name, seed=scenario_seed),
                                        default_execution_for(name))
                    report = campaign.run()
                op.latency_s = seg[0]
                op.measurements = report.measurements_run
                op.digests["estimates"] = estimates_digest(report.estimates)
                check_estimates(op, report.estimates, report.failures, report.ground_truth)
                bound = campaign.resolved.authority.params.inflation_bound
                worst = max(report.adversary_inflation().values(), default=0.0)
                if worst > bound * (1 + 1e-12):
                    op.failures.append(f"adversary inflation {worst} > 1/(1-r) = {bound}")
                for record in report.deployment_records:
                    text = record.bwfile.serialize()
                    if BandwidthFile.parse(text).serialize() != text:
                        op.failures.append("bandwidth file does not round-trip")
                p.ops.append(op)
                if index < self.stat_passes:
                    truth = report.ground_truth
                    errors += [abs(e) for fp, e in report.error_vs_truth().items()
                               if fp not in report.adversaries]
                    weight_errors.append(network_weight_error(report.estimates, truth))
                    hours += report.hours_elapsed
        if index < self.stat_passes:
            p.samples = {"errors": errors, "weight_errors": weight_errors,
                         "sim_network_hours": [hours]}
        return p


# ---------------------------------------------------------------------------
# continuous-service


class _PeriodClock:
    """A simulated clock that stamps host time at each period boundary.

    The daemon sleeps on its clock before every period but the first of
    a run, so the stamps split a run into per-period latencies.
    """

    def __init__(self):
        from repro.service import SimulatedClock

        self._clock = SimulatedClock()
        self.stamps: list[float] = []

    def now(self) -> float:
        return self._clock.now()

    async def sleep(self, seconds: float) -> None:
        self.stamps.append(time.perf_counter())
        await self._clock.sleep(seconds)


#: The churn calibration ``repro.service.churn`` documents for July 2019:
#: about 72 relays join the 6,419-relay network per 24-hour period (3 an
#: hour). The workload scales it to its own size, lets leaves balance
#: joins so the network keeps its size, and leaves capacity drift off
#: (the ``ChurnConfig`` default), as the calibration gives no rate for it.
JULY_2019_JOINS_PER_PERIOD = 72.0


class ContinuousService:
    """The bwauth daemon over churned analytic periods, stopped and resumed."""

    name = "continuous-service"
    scenario = "continuous-deployment"
    stat_passes = 1

    def __init__(self, out_root: pathlib.Path):
        self.out_root = out_root

    def params(self, small: bool) -> dict:
        from repro.tornet.network import JULY_2019_RELAY_COUNT

        n_relays = 150 if small else 2000
        # Share of the network that joins (and, balancing it, leaves)
        # per 24-hour period under the July-2019 calibration.
        turnover = JULY_2019_JOINS_PER_PERIOD / JULY_2019_RELAY_COUNT
        return {"scenario": self.scenario, "n_relays": n_relays,
                "periods": 4 if small else 10, "stop_at": 2 if small else 5,
                "churn": {"join_rate": turnover * n_relays, "leave_fraction": turnover,
                          "capacity_change_fraction": 0.0},
                "execution": "ExecutionConfig(full_simulation=False)",
                "out_dir": str(self.out_root)}

    def config(self, params, scenario_seed, churn_seed, out_dir, n_relays=None, periods=None):
        from repro.api import ExecutionConfig
        from repro.service import ChurnConfig, ServiceConfig

        return ServiceConfig(
            scenario=self.scenario,
            overrides={"n_relays": n_relays or params["n_relays"], "seed": scenario_seed},
            periods=periods or params["periods"],
            out_dir=str(out_dir / "v3bw"),
            churn=ChurnConfig(seed=churn_seed, **params["churn"]),
            execution=ExecutionConfig(full_simulation=False),
        )

    def setup(self, params: dict) -> None:
        from repro.api import get_scenario
        from repro.service import BwauthDaemon

        self.base = get_scenario(self.scenario).seed
        self.out_root.mkdir(parents=True, exist_ok=True)
        out = pathlib.Path(tempfile.mkdtemp(prefix="warmup-", dir=self.out_root))
        try:
            config = self.config(params, self.base - 1, STRIDE - 1, out, n_relays=40, periods=2)
            daemon = BwauthDaemon(config, journal_path=out / "journal.jsonl")
            daemon.run(until_period=1)
            daemon.close()
            daemon = BwauthDaemon.resume(out / "journal.jsonl")
            daemon.run()
            daemon.close()
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _state(daemon) -> tuple:
        """What a resumed daemon must take over from the stopped one."""
        return (daemon.next_period, daemon.published_count,
                daemon.deployment.current_period, daemon.table.to_dict(),
                daemon.deployment.history_snapshot())

    def _lifetime(self, p, make, until, clock, timer, tag):
        """Build a daemon, then run it; both steps are timed.

        Returns the daemon, its live state right after construction
        (taken untimed), and one op per period it ran.
        """
        with timer.segment(p, "bench.start"):
            daemon = make()
        initial = self._state(daemon)
        first = daemon.next_period
        with timer.segment(p, "bench.run"):
            ready = time.perf_counter()
            daemon.run(until_period=until)
            end = time.perf_counter()
            daemon.close()
        bounds = [ready] + clock.stamps + [end]
        ops = [Op(f"{tag}-period-{first + i}", latency_s=b - a)
               for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        return daemon, initial, ops

    def run_pass(self, params, seed, index, timer) -> Pass:
        from repro.core.bwfile import BandwidthFile
        from repro.core.params import FlashFlowParams
        from repro.service import BwauthDaemon, read_journal
        from repro.service.validate import validate_journal
        from repro.shadow.experiment import network_weight_error, relay_capacity_errors

        p = Pass(index)
        self.out_root.mkdir(parents=True, exist_ok=True)
        out = pathlib.Path(tempfile.mkdtemp(prefix=f"pass{index}-", dir=self.out_root))
        journal = out / "journal.jsonl"
        scenario_seed = self.base + seed * STRIDE + index
        config = self.config(params, scenario_seed, seed * STRIDE + index, out)
        tag = f"deployment-{scenario_seed}"
        try:
            clock = _PeriodClock()
            first, _, ops = self._lifetime(
                p, lambda: BwauthDaemon(config, journal_path=journal, clock=clock),
                params["stop_at"], clock, timer, tag)
            clock = _PeriodClock()
            second, resumed_at, more = self._lifetime(
                p, lambda: BwauthDaemon.resume(journal, clock=clock),
                None, clock, timer, tag)
            ops += more
            daemons = [first, second]
            if resumed_at != self._state(first):
                more[0].failures.append("resume did not restore the stopped daemon's state")
            p.ops = ops
            p.counts = {"service.period_wall_s": sum(op.latency_s for op in ops),
                        "service.journal_bytes": journal.stat().st_size}

            # Once per run, untimed: an uninterrupted deployment of the
            # same config must publish the bytes the resumed one did.
            uninterrupted = None
            if index == 0:
                reference = BwauthDaemon(dataclasses.replace(config, out_dir=None)).run()
                uninterrupted = dict(reference.published)

            stats = {s["period"]: s for d in daemons for s in d.period_stats}
            published = {k: text for d in daemons for k, text in d.published}
            for op in ops:
                k = int(op.label.rsplit("-", 1)[1])
                s, text = stats.get(k), published.get(k)
                if s is None or text is None:
                    op.failures.append("period not completed or not published")
                    continue
                op.measurements = s["measurements"]
                op.digests["estimates"] = s["estimates_sha256"]
                op.digests["v3bw"] = sha256(text)
                if uninterrupted is not None and uninterrupted.get(k) != text:
                    op.failures.append("published file differs from an uninterrupted deployment's")
                bwfile = BandwidthFile.parse(text)
                if bwfile.serialize() != text:
                    op.failures.append("published file does not round-trip")
                on_disk = out / "v3bw" / f"v3bw-{k:05d}.txt"
                if not on_disk.exists() or on_disk.read_text(encoding="utf-8") != text:
                    op.failures.append("file on disk differs from the published text")
                if s["n_estimated"] + s["n_failed"] != s["n_relays"]:
                    op.failures.append("relays neither estimated nor failed")
                if len(bwfile) != s["n_estimated"] or any(
                        not (math.isfinite(z) and z > 0)
                        for z in bwfile.capacities().values()):
                    op.failures.append("published estimates not finite and positive")
            try:
                if not validate_journal(journal).get("complete"):
                    ops[-1].failures.append("journal does not record a complete deployment")
            except ValueError as exc:
                ops[-1].failures.append(f"journal invalid: {exc}")

            if index < self.stat_passes:
                # A snapshot written after period k holds period k's
                # membership: the ground truth its file is scored on.
                truth, slots = {}, 0
                for record in read_journal(journal):
                    if record["type"] == "snapshot":
                        truth[record["next_period"] - 1] = {
                            row[0]: row[1] for row in record["table"]["rows"]}
                    elif record["type"] == "round":
                        slots += record["slots_packed"]
                errors, weight_errors = [], []
                for k, text in sorted(published.items()):
                    estimates = BandwidthFile.parse(text).capacities()
                    errors += [abs(e) for e in relay_capacity_errors(estimates, truth[k]).values()]
                    weight_errors.append(network_weight_error(estimates, truth[k]))
                p.samples = {
                    "errors": errors, "weight_errors": weight_errors,
                    "sim_network_hours": [slots * FlashFlowParams().slot_seconds / 3600.0],
                }
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return p


# ---------------------------------------------------------------------------
# shadow-loadbalance


class ShadowLoadBalance:
    """The §7 TorFlow-vs-FlashFlow comparison on a quarter of its network.

    §7's network has 328 relays, 397 Markov clients and 40 benchmark
    clients. A quarter of each keeps one comparison near a second, so a
    run holds tens of them and their median is steady; on the whole
    network a run holds four.
    """

    name = "shadow-loadbalance"
    #: One 82-relay network per pass; eight pool enough relays for
    #: steady error statistics across seeds.
    stat_passes = 8

    def params(self, small: bool) -> dict:
        if small:
            return {"n_relays": 40, "n_markov_clients": 50, "n_benchmark_clients": 10,
                    "sim_seconds": 60, "warmup_seconds": 5, "loads": [1.0]}
        return {"n_relays": 82, "n_markov_clients": 99, "n_benchmark_clients": 10,
                "sim_seconds": 60, "warmup_seconds": 10, "loads": [1.0]}

    def setup(self, params: dict) -> None:
        from repro.shadow import ShadowConfig, compare_systems

        tiny = ShadowConfig(n_relays=20, sim_seconds=10, warmup_seconds=5,
                            n_markov_clients=8, n_benchmark_clients=2, seed=STRIDE - 1)
        compare_systems(tiny, loads=(1.0,), seed=STRIDE - 1)

    def run_pass(self, params, seed, index, timer) -> Pass:
        from repro.obs import get_registry
        from repro.service.daemon import estimates_digest
        from repro.shadow import ShadowConfig, compare_systems

        p = Pass(index)
        run_seed = seed * STRIDE + index
        config = ShadowConfig(
            seed=run_seed, **{k: v for k, v in params.items() if k != "loads"})
        op = Op(f"compare-{run_seed}")
        measurements = get_registry().counter("campaign.measurements")
        before = measurements.value
        with timer.segment(p) as seg:
            result = compare_systems(config, loads=tuple(params["loads"]), seed=run_seed)
        op.latency_s = seg[0]
        op.measurements = measurements.value - before

        estimates, capacities = result.flashflow_estimates, result.capacities
        check_estimates(op, estimates, {}, capacities)
        if any(not (math.isfinite(w) and w >= 0) for w in result.torflow_weights.values()):
            op.failures.append("TorFlow weights not finite and non-negative")
        headline = {}
        for system in ("flashflow", "torflow"):
            run = result.run_for(system, params["loads"][0])
            headline[system] = {
                "weight_error": result.network_weight_error(system),
                "ttlb_1m_p50_s": run.ttlb_stats(1024 * 1024)["median"],
                "transfers": run.metrics.transfers_completed() + run.metrics.transfers_failed(),
                "timeouts": run.metrics.transfers_failed(),
            }
        if not all(math.isfinite(v) for h in headline.values() for v in h.values()):
            op.failures.append("headline statistics not finite")
        op.digests["estimates"] = estimates_digest(estimates)
        op.digests["torflow"] = estimates_digest(result.torflow_weights)
        op.digests["headline"] = sha256(repr(sorted(
            (s, sorted(h.items())) for s, h in headline.items())))
        p.ops.append(op)
        if index < self.stat_passes:
            ff, tf = headline["flashflow"], headline["torflow"]
            p.samples = {
                "errors": [abs(e) for e in result.flashflow_capacity_errors().values()],
                "weight_errors": [ff["weight_error"]],
                "ttlb_1m_p50_s": [ff["ttlb_1m_p50_s"]],
                "torflow_weight_error": [tf["weight_error"]],
                "torflow_ttlb_1m_p50_s": [tf["ttlb_1m_p50_s"]],
            }
        return p


def workloads(out_root: pathlib.Path) -> dict:
    return {w.name: w for w in (ContinuousService(out_root), PaperScenarios(),
                                ShadowLoadBalance())}
