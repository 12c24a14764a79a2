#!/usr/bin/env python
"""Kernel benchmark runner: fixed-seed campaign benches, machine-readable.

Times the slowest measurement-campaign workloads (the Figure 6 accuracy
grid, the Figure 15/16 multiplier sweep, and a whole-network campaign)
on every kernel backend, verifies all backends produce bit-identical
estimates, and writes ``benchmarks/results/BENCH_kernel.json`` so
future changes have a recorded perf trajectory.

The whole-network campaign runs through the scenario API
(:class:`repro.api.Campaign`); the ``api_overhead`` section times that
API path against a verbatim port of the pre-API campaign loop (no
scenario resolution, no events, no report) on identical seeds and
asserts the API layer costs < 2%.

``process`` parallelism scales with ``cpu_count``; the recorded value
documents the machine it ran on.

Usage: PYTHONPATH=src python scripts/bench.py [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import quick_team  # noqa: E402
from repro.api import Campaign, ExecutionConfig, Scenario  # noqa: E402
from repro.obs import Tracer, use_tracer  # noqa: E402
from repro.core.allocation import allocate_capacity, allocate_evenly  # noqa: E402
from repro.core.engine import MeasurementEngine, MeasurementSpec  # noqa: E402
from repro.core.measurer import Measurer  # noqa: E402
from repro.core.params import FlashFlowParams  # noqa: E402
from repro.errors import AllocationError  # noqa: E402
from repro.netsim.latency import NetworkModel  # noqa: E402
from repro.rng import fork, seed_from  # noqa: E402
from repro.tornet.cpu import CpuModel  # noqa: E402
from repro.tornet.network import synthesize_network  # noqa: E402
from repro.tornet.relay import Relay  # noqa: E402
from repro.units import mbit  # noqa: E402

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "results" / "BENCH_kernel.json"
)
BACKENDS = ("serial", "process", "vector")

#: The bench's own recording tracer: every timed block is a span here
#: (the same clock discipline ``repro.obs`` uses everywhere else),
#: replacing the historical ad-hoc perf_counter pairs. It is *not*
#: installed as the ambient tracer, so timed campaign code still runs
#: its zero-overhead null-tracer path -- except in ``measure_stages``,
#: which installs one deliberately to record the campaign's own spans.
_BENCH_TRACER = Tracer()


def _timed(name: str, fn, **attrs):
    """Run ``fn`` under a bench span; returns (wall_seconds, result)."""
    with _BENCH_TRACER.span(name, **attrs) as span:
        result = fn()
    return span.wall_seconds, result

#: Ground-truth Tor capacity of US-SW per configured limit (§6.1, E.2) --
#: the same grid the fig06/fig15 pytest benches sweep.
GROUND_TRUTH = {
    10: mbit(9.58),
    250: mbit(239),
    500: mbit(494),
    750: mbit(741),
    0: mbit(890),
}
MEASURERS = ("US-NW", "US-E", "IN", "NL")


def _target(limit: int, tag: str, seed: int, model: NetworkModel) -> Relay:
    relay = Relay(
        fingerprint=f"{tag}-{limit}-{seed}",
        host=model.host("US-SW"),
        cpu=CpuModel(max_forward_bits=mbit(890)),
        seed=seed,
    )
    if limit:
        relay.set_rate_limit(GROUND_TRUTH[limit])
    return relay


def fig06_specs(repetitions: int = 7, seed: int = 3) -> list[MeasurementSpec]:
    """The Figure 6 accuracy grid as independent specs (30 s slots)."""
    params = FlashFlowParams()
    model = NetworkModel.paper_internet(seed=seed)
    specs = []
    for limit, truth in GROUND_TRUTH.items():
        required = params.allocation_factor * truth
        for size in range(1, len(MEASURERS) + 1):
            for subset in itertools.combinations(MEASURERS, size):
                team = [Measurer(name=n, host=model.host(n)) for n in subset]
                if sum(m.capacity for m in team) < required:
                    continue
                if any(required / len(team) > m.capacity for m in team):
                    continue
                for rep in range(repetitions):
                    specs.append(
                        MeasurementSpec(
                            target=_target(
                                limit, "us-sw", rep * 31 + size, model
                            ),
                            assignments=allocate_evenly(team, required),
                            params=params,
                            network=model,
                            target_location="US-SW",
                            seed=seed + rep * 1009
                            + seed_from(0, "-".join(subset)) % 997,
                            enforce_admission=False,
                        )
                    )
    return specs


def fig15_specs(duration: int = 60, seed: int = 15) -> list[MeasurementSpec]:
    """The Figure 15/16 multiplier sweep as independent specs (60 s)."""
    model = NetworkModel.paper_internet(seed=seed)
    specs = []
    for multiplier in (1.5, 1.75, 2.0, 2.25, 2.5):
        params = FlashFlowParams(multiplier=multiplier, slot_seconds=duration)
        for limit, truth in GROUND_TRUTH.items():
            required = multiplier * truth
            for size in (1, 2, 3, 4):
                for subset in itertools.combinations(MEASURERS, size):
                    team = [
                        Measurer(name=n, host=model.host(n)) for n in subset
                    ]
                    if sum(m.capacity for m in team) < required:
                        continue
                    try:
                        assignments = allocate_evenly(team, required)
                    except AllocationError:
                        continue
                    specs.append(
                        MeasurementSpec(
                            target=_target(
                                limit, f"t-{multiplier}", limit + size, model
                            ),
                            assignments=assignments,
                            params=params,
                            network=model,
                            target_location="US-SW",
                            seed=seed + seed_from(
                                0, f"{multiplier}-{limit}-{'-'.join(subset)}"
                            ) % 10000,
                            enforce_admission=False,
                        )
                    )
    return specs


def _time_spec_campaign(make_specs, mode: str, repeats: int):
    """Best-of-N wall time for one backend over a spec campaign.

    Specs (and their stateful relays) are rebuilt for every timed run so
    each backend starts from identical state.
    """
    best, signature, count = float("inf"), None, 0
    for _ in range(repeats):
        specs = make_specs()
        engine = MeasurementEngine()
        seconds, outcomes = _timed(
            "bench.spec_campaign",
            lambda: engine.run_many(specs, backend=mode),
            mode=mode,
        )
        best = min(best, seconds)
        signature = sum(o.estimate for o in outcomes)
        count = len(outcomes)
    return best, signature, count


def _time_network_campaign(mode: str, repeats: int, n_relays: int = 200):
    """Best-of-N wall time for a whole-network campaign (API path)."""
    best, signature, count = float("inf"), None, 0
    for _ in range(repeats):
        network = synthesize_network(n_relays=n_relays, seed=71)
        authority = quick_team(seed=72)
        campaign = Campaign(
            Scenario(
                name="bench-network-campaign",
                network=network,
                team=authority,
            ),
            ExecutionConfig(backend=mode),
        )
        seconds, report = _timed(
            "bench.network_campaign", campaign.run, mode=mode
        )
        best = min(best, seconds)
        signature = sum(report.estimates.values())
        count = report.measurements_run
    return best, signature, count


def _direct_campaign_loop(network, authority) -> dict[str, float]:
    """The pre-API ``measure_network`` body (cold priors, full sim).

    A verbatim port of the loop as it stood before the scenario API
    absorbed it -- no scenario resolution, no events, no per-round
    records -- kept here as the baseline the API path is timed against.
    """
    from collections import deque

    from repro.core.allocation import allocate_capacity, total_allocated
    from repro.rng import fork

    params = authority.params
    team = authority.team
    team_capacity = authority.team_capacity()
    engine = authority.engine
    fork(authority.seed, "campaign-analytic")  # loop's (unused) wobble RNG
    estimates: dict[str, float] = {}

    queue = deque(
        (fp, params.new_relay_seed, 0) for fp in network.relays
    )

    def required_for(z0):
        return min(params.allocation_factor * max(z0, 1.0), team_capacity)

    slot_index = 0
    while queue:
        jobs = []
        waiting = queue
        while waiting:
            residual = team_capacity
            this_slot, deferred = [], deque()
            while waiting:
                fp, z0, rounds = waiting.popleft()
                if required_for(z0) <= residual + 1e-6:
                    this_slot.append((fp, z0, rounds))
                    residual -= required_for(z0)
                else:
                    deferred.append((fp, z0, rounds))
            if not this_slot:
                this_slot.append(deferred.popleft())
            for fp, z0, rounds in this_slot:
                required = required_for(z0)
                jobs.append((
                    fp, z0, rounds, slot_index,
                    required < params.allocation_factor * z0,
                    allocate_capacity(team, required),
                ))
            slot_index += 1
            waiting = deferred

        specs = [
            MeasurementSpec(
                target=network[fp],
                assignments=assignments,
                params=params,
                network=authority.network,
                background_demand=0.0,
                seed=authority.seed + slot * 7919 + rounds,
                bwauth_id=authority.name,
                period_index=0,
                enforce_admission=False,
            )
            for fp, z0, rounds, slot, capped, assignments in jobs
        ]
        outcomes = engine.run_many(specs)

        retries = deque()
        for (fp, z0, rounds, slot, capped, assignments), outcome in zip(
            jobs, outcomes
        ):
            if outcome.failed:
                continue
            z = outcome.estimate
            threshold = params.acceptance_threshold(
                total_allocated(assignments)
            )
            if z < threshold or capped:
                estimates[fp] = z
                authority.estimates[fp] = z
            elif rounds + 1 < 8:
                retries.append((fp, max(z, 2.0 * z0), rounds + 1))
        queue = retries
    return estimates


def measure_api_overhead(repeats: int, n_relays: int = 120) -> dict:
    """Scenario-API overhead vs the pre-API campaign loop.

    ``measure_network`` is now itself a shim over the API, so the
    baseline is :func:`_direct_campaign_loop` -- the historical loop
    without scenario resolution, events, or report assembly -- on
    identical seeds. The delta is the true cost of the API layer and
    must stay below 2%.
    """
    def run_direct() -> tuple[float, float]:
        network = synthesize_network(n_relays=n_relays, seed=81)
        authority = quick_team(seed=82)
        seconds, estimates = _timed(
            "bench.api_overhead",
            lambda: _direct_campaign_loop(network, authority),
            mode="direct",
        )
        return seconds, sum(estimates.values())

    def run_api() -> tuple[float, float]:
        network = synthesize_network(n_relays=n_relays, seed=81)
        authority = quick_team(seed=82)
        campaign = Campaign(
            Scenario(name="bench-api-overhead", network=network,
                     team=authority),
            ExecutionConfig(),
        )
        seconds, report = _timed(
            "bench.api_overhead", campaign.run, mode="api"
        )
        return seconds, sum(report.estimates.values())

    direct_best, api_best = float("inf"), float("inf")
    direct_sig = api_sig = None
    for _ in range(repeats):
        seconds, direct_sig = run_direct()
        direct_best = min(direct_best, seconds)
        seconds, api_sig = run_api()
        api_best = min(api_best, seconds)
    overhead = api_best / direct_best - 1.0
    print(f"{'api_overhead':22s} direct {direct_best:8.3f}s  "
          f"api {api_best:8.3f}s  ({overhead * 100:+.2f}%)")
    return {
        "describe": (
            "Campaign.run() (scenario resolution + event/report stream) "
            "vs the pre-API campaign loop, identical seeds"
        ),
        "n_relays": n_relays,
        "direct_seconds": round(direct_best, 4),
        "api_seconds": round(api_best, 4),
        "overhead_fraction": round(overhead, 4),
        "within_2pct": overhead < 0.02,
        "identical_estimates": repr(direct_sig) == repr(api_sig),
    }


#: Shadow flow-simulator bench config: the ``shadow-measurement``-style
#: workload (a §7 performance run on a scaled network), sized so one
#: horizon takes under a second on the vector backend.
SHADOW_BENCH_CONFIG = dict(
    n_relays=60,
    n_markov_clients=120,
    n_benchmark_clients=10,
    sim_seconds=150,
    warmup_seconds=30,
    seed=23,
)
SHADOW_BACKENDS = ("stateful", "vector")


def _shadow_signature(metrics) -> tuple:
    """A trajectory-sensitive fingerprint of one simulation's metrics."""
    return (
        sum(metrics.throughput_series),
        tuple(metrics.ttfb()),
        tuple(metrics.error_rates()),
        metrics.transfers_completed(),
        metrics.transfers_failed(),
        sum(metrics.relay_p95_throughput.values()),
    )


def measure_shadow_flow(repeats: int) -> dict:
    """Stateful-vs-vector wall time for the shadow flow simulator.

    Times one full performance-simulation horizon (the unit of work
    behind every TorFlow warmup and Figure 9 run) on both shadow
    backends, verifies the metrics are bit-identical, and records the
    speedup of the vectorized flow kernel.
    """
    from repro.shadow.config import ShadowConfig, build_network
    from repro.shadow.simulator import NetworkSimulator

    config = ShadowConfig(**SHADOW_BENCH_CONFIG)
    network = build_network(config)
    weights = network.relays.capacities()

    rows: dict[str, float] = {}
    signatures = {}
    for backend in SHADOW_BACKENDS:
        best = float("inf")
        for _ in range(repeats):
            sim = NetworkSimulator(network, seed=24)
            seconds, metrics = _timed(
                "bench.shadow_flow",
                lambda: sim.run(weights, backend=backend),
                backend=backend,
            )
            best = min(best, seconds)
            signatures[backend] = _shadow_signature(metrics)
        rows[backend] = round(best, 4)
        print(f"{'shadow_flow':22s} {backend:11s} {best:8.3f}s  "
              f"({SHADOW_BENCH_CONFIG['sim_seconds']}s horizon)")
    identical = signatures["stateful"] == signatures["vector"]
    if not identical:  # pragma: no cover - a correctness regression
        raise SystemExit("shadow_flow: backends disagree on metrics")
    return {
        "describe": (
            "shadow-measurement flow-simulator horizon (background "
            "circuits + benchmark transfers), stateful walk vs "
            "vectorized flow kernel"
        ),
        "config": dict(SHADOW_BENCH_CONFIG),
        # Per-block provenance: --shadow merges this block into an
        # existing JSON without re-running the other benches, so it
        # must not inherit their timestamp/repeats.
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "seconds": rows,
        "speedup_vector_vs_stateful": round(
            rows["stateful"] / rows["vector"], 2
        ),
        "identical_metrics": identical,
    }


#: Analytic-kernel bench config: one whole-network-scale round of
#: analytic estimates (the unit of work the ``full_simulation=False``
#: campaign path executes per round), plus an end-to-end analytic
#: campaign for context.
ANALYTIC_BENCH_CONFIG = dict(n_jobs=3000, n_relays=300, seed=9)


class _AnalyticBenchJob:
    """The duck-typed job shape run_analytic_round consumes."""

    __slots__ = ("relay", "assignments", "wobble", "capped")

    def __init__(self, relay, assignments, wobble, capped):
        self.relay = relay
        self.assignments = assignments
        self.wobble = wobble
        self.capped = capped


def _analytic_round_jobs(n_jobs: int, seed: int):
    """One large analytic round: varied capacities, rate limits, caps."""
    params = FlashFlowParams()
    auth = quick_team(seed=seed)
    rng = fork(seed, "bench-analytic")
    jobs = []
    for i in range(n_jobs):
        relay = Relay(
            fingerprint=f"an-{i}",
            cpu=CpuModel(max_forward_bits=mbit(40 + 37 * (i % 211))),
            seed=seed + i,
        )
        if i % 6 == 0:
            relay.set_rate_limit(mbit(30 + i % 180))
        jobs.append(
            _AnalyticBenchJob(
                relay=relay,
                assignments=allocate_evenly(auth.team, mbit(90 + 13 * (i % 97))),
                wobble=max(0.8, rng.gauss(1.0, 0.02)),
                capped=(i % 9 == 0),
            )
        )
    return params, jobs


def measure_analytic(repeats: int) -> dict:
    """Stateful-loop vs analytic-kernel wall time for one analytic round.

    The stateful side is exactly what the campaign's
    ``full_simulation=False`` path executed per job before the kernel:
    one ``MeasurementEngine.analytic_estimate`` call plus the fold's
    ``acceptance_threshold(total_allocated(...))`` accept decision. The
    kernel side is :func:`repro.kernel.analytic.run_analytic_round` on
    the ``vector`` backend -- the whole round as one array walk.
    Verifies exact equality, and also times a full analytic campaign
    end-to-end on ``serial`` and ``vector`` for context.
    """
    from repro.core.allocation import total_allocated
    from repro.kernel.analytic import run_analytic_round

    config = dict(ANALYTIC_BENCH_CONFIG)
    params, jobs = _analytic_round_jobs(config["n_jobs"], config["seed"])
    engine = MeasurementEngine()

    def stateful_loop():
        out = []
        for job in jobs:
            z = engine.analytic_estimate(
                job.relay, job.assignments, params, job.wobble
            )
            threshold = params.acceptance_threshold(
                total_allocated(job.assignments)
            )
            out.append((z, z < threshold or job.capped))
        return out

    def analytic_kernel():
        result = run_analytic_round(engine, jobs, params, backend="vector")
        return list(zip(result.estimates, result.accepted))

    rows: dict[str, float] = {}
    signatures = {}
    # Each timed call walks the same pure jobs; inner repetitions keep
    # the measured spans well above timer resolution.
    inner = 5
    for name, fn in (("stateful_loop", stateful_loop),
                     ("analytic_kernel", analytic_kernel)):
        best = float("inf")
        for _ in range(max(repeats, 2)):
            def run_inner():
                for _ in range(inner):
                    signatures[name] = fn()

            seconds, _ = _timed("bench.analytic_round", run_inner, mode=name)
            best = min(best, seconds / inner)
        rows[name] = round(best, 5)
        print(f"{'analytic_round':22s} {name:15s} {best * 1e3:8.2f}ms  "
              f"({config['n_jobs']} jobs)")
    identical = signatures["stateful_loop"] == signatures["analytic_kernel"]
    if not identical:  # pragma: no cover - a correctness regression
        raise SystemExit("analytic: kernel disagrees with the stateful loop")

    def campaign_seconds(backend: str) -> tuple[float, float]:
        best, signature = float("inf"), None
        for _ in range(repeats):
            network = synthesize_network(
                n_relays=config["n_relays"], seed=config["seed"] + 1
            )
            authority = quick_team(seed=config["seed"] + 2)
            campaign = Campaign(
                Scenario(network=network, team=authority),
                ExecutionConfig(backend=backend, full_simulation=False),
            )
            seconds, report = _timed(
                "bench.analytic_campaign", campaign.run, backend=backend
            )
            best = min(best, seconds)
            signature = sum(report.estimates.values())
        return best, signature

    serial_s, serial_sig = campaign_seconds("serial")
    kernel_s, kernel_sig = campaign_seconds("vector")
    if repr(serial_sig) != repr(kernel_sig):  # pragma: no cover
        raise SystemExit("analytic: campaign backends disagree on estimates")
    print(f"{'analytic_campaign':22s} serial {serial_s:8.3f}s  "
          f"vector {kernel_s:8.3f}s  ({config['n_relays']} relays)")
    return {
        "describe": (
            "full_simulation=False round: stateful analytic_estimate loop "
            "(+ per-job accept decision) vs the analytic kernel's array "
            "walk, plus an end-to-end analytic campaign"
        ),
        "config": config,
        # Per-block provenance: --analytic merges this block into an
        # existing JSON without re-running the other benches.
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "seconds": rows,
        "speedup_analytic_vs_stateful": round(
            rows["stateful_loop"] / rows["analytic_kernel"], 2
        ),
        "campaign": {
            "n_relays": config["n_relays"],
            "serial_seconds": round(serial_s, 4),
            "analytic_seconds": round(kernel_s, 4),
            "speedup": round(serial_s / kernel_s, 2),
        },
        "identical_estimates": identical,
    }


#: Scale bench: columnar materialization plus one whole-network campaign
#: round at each network size. Rounds run in the Tor-scale campaign
#: configuration (``full_simulation=False`` -- the analytic kernel's
#: array walk) on the vector backend; the Tor-scale row additionally
#: times the full per-second simulation round for the perf trajectory.
SCALE_NS = (1_000, 10_000, 100_000)
TOR_SCALE_N = 6419  # July 2019 relay count (§6)


def _scale_round_jobs(network, authority):
    """One campaign round's jobs: every relay new, packed greedily."""
    params = authority.params
    team = authority.team
    team_capacity = authority.team_capacity()
    required = min(
        params.allocation_factor * max(params.new_relay_seed, 1.0),
        team_capacity,
    )
    assignments = allocate_capacity(authority.team, required)
    rng = fork(authority.seed, "campaign-analytic")
    jobs = [
        _AnalyticBenchJob(
            relay=network[fp],
            assignments=assignments,
            wobble=max(0.8, rng.gauss(1.0, 0.02)),
            capped=False,
        )
        for fp in network.relays
    ]
    return params, jobs


def measure_scale(repeats: int) -> dict:
    """Tor-scale columnar materialization and whole-network rounds.

    For each network size: best-of-N wall time to materialize the
    columnar network (:func:`synthesize_network`'s default path) and to
    execute one whole-network campaign round -- the analytic kernel's
    array walk on the vector backend, the configuration Tor-scale
    campaigns run in. The Tor-scale (6419-relay) row also times one
    full per-second simulation round (``run_specs`` on the vector
    backend, bulk jitter predraw included) so the full-simulation
    trajectory is on record. ``cpu_count`` provenance lives in the
    block: single-core CI numbers and multi-core workstation numbers
    are not comparable.
    """
    from repro.kernel import run_specs
    from repro.kernel.analytic import run_analytic_round

    rows = {}
    for n in SCALE_NS + (TOR_SCALE_N,):
        materialize = float("inf")
        for _ in range(repeats):
            seconds, network = _timed(
                "bench.scale_materialize",
                lambda: synthesize_network(n_relays=n, seed=71),
                n_relays=n,
            )
            materialize = min(materialize, seconds)
        authority = quick_team(seed=72)
        engine = MeasurementEngine()
        params, jobs = _scale_round_jobs(network, authority)
        round_s = float("inf")
        for _ in range(repeats):
            seconds, result = _timed(
                "bench.scale_round",
                lambda: run_analytic_round(
                    engine, jobs, params, backend="vector"
                ),
                n_relays=n,
            )
            round_s = min(round_s, seconds)
        assert len(result.estimates) == n
        row = {
            "materialize_seconds": round(materialize, 4),
            "analytic_round_seconds": round(round_s, 4),
        }
        if n == TOR_SCALE_N:
            required = min(
                params.allocation_factor * max(params.new_relay_seed, 1.0),
                authority.team_capacity(),
            )
            specs = [
                MeasurementSpec(
                    target=network[fp],
                    assignments=allocate_capacity(authority.team, required),
                    params=params,
                    seed=authority.seed + i * 7919,
                    enforce_admission=False,
                )
                for i, fp in enumerate(network.relays)
            ]
            seconds, outcomes = _timed(
                "bench.scale_full_sim_round",
                lambda: run_specs(engine, specs, backend="vector"),
                n_relays=n,
            )
            row["full_sim_round_seconds"] = round(seconds, 4)
            assert len(outcomes) == n
        rows[str(n)] = row
        print(
            f"{'scale':22s} {n:>7d} relays  materialize "
            f"{row['materialize_seconds']:8.3f}s  round "
            f"{row['analytic_round_seconds']:8.4f}s"
            + (
                f"  full-sim {row['full_sim_round_seconds']:8.3f}s"
                if "full_sim_round_seconds" in row
                else ""
            )
        )
    return {
        "describe": (
            "columnar network materialization and one whole-network "
            "campaign round (analytic kernel, vector backend) per "
            "network size; the Tor-scale row also times one full "
            "per-second simulation round"
        ),
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "networks": rows,
    }


#: Stage-breakdown bench config: a whole-network campaign run under a
#: recording tracer (the same spans ``--trace`` streams to JSONL).
STAGES_BENCH_CONFIG = dict(n_relays=150, seed=51, backend="vector")


def measure_stages(repeats: int) -> dict:
    """Per-stage wall breakdown of a whole-network campaign.

    Installs a recording tracer for the campaign (exactly what
    ``ExecutionConfig(trace=...)`` does, minus the JSONL sink) and folds
    span wall time by name: where a campaign's time actually goes --
    resolve, pack, compile, execute, settle, fold -- rather than one
    end-to-end number. The breakdown kept is the fastest repeat's, so
    stage shares aren't polluted by warmup noise.
    """
    config = dict(STAGES_BENCH_CONFIG)
    best_tracer = None
    best_wall = float("inf")
    for _ in range(repeats):
        network = synthesize_network(
            n_relays=config["n_relays"], seed=config["seed"]
        )
        authority = quick_team(seed=config["seed"] + 1)
        campaign = Campaign(
            Scenario(name="bench-stages", network=network, team=authority),
            ExecutionConfig(backend=config["backend"]),
        )
        tracer = Tracer()
        with use_tracer(tracer):
            campaign.run()
        wall = tracer.wall_by_name().get("campaign", float("inf"))
        if wall < best_wall:
            best_wall, best_tracer = wall, tracer
    stages = {
        name: round(wall, 4)
        for name, wall in sorted(
            best_tracer.wall_by_name().items(), key=lambda kv: -kv[1]
        )
    }
    counts: dict[str, int] = {}
    for span in best_tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    for name, wall in stages.items():
        print(f"{'stage_breakdown':22s} {name:18s} {wall:8.3f}s  "
              f"(x{counts[name]})")
    return {
        "describe": (
            "whole-network campaign under a recording tracer: total "
            "wall seconds per span name (fastest of N runs; child span "
            "time is also inside its parents' totals)"
        ),
        "config": config,
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "campaign_wall_seconds": round(best_wall, 4),
        "wall_seconds_by_stage": stages,
        "span_counts": {name: counts[name] for name in stages},
    }


#: Service bench config: a short analytic continuous deployment (the
#: daemon's steady-state unit of work) plus isolated churn-apply and
#: checkpoint costs at large-table sizes.
SERVICE_BENCH_CONFIG = dict(n_relays=40, periods=6, seed=7)
SERVICE_TABLE_NS = (1_000, 10_000)


def measure_service(repeats: int) -> dict:
    """Continuous-daemon throughput, checkpoint cost, and churn cost.

    Three rows: (1) a short analytic deployment through
    :func:`repro.service.run_daemon` on the simulated clock, reported
    as periods/minute -- the daemon's steady-state throughput; (2)
    snapshot write (state -> JSON line) and restore (JSON -> state)
    cost at 1k/10k-relay tables -- the per-boundary checkpoint tax; (3)
    churn derive+apply cost at the same table sizes. ``cpu_count``
    provenance lives in the block: the campaign inside each period
    parallelizes, so single-core CI numbers and workstation numbers
    are not comparable.
    """
    from repro.service import (
        NetworkTable,
        ServiceConfig,
        Snapshot,
        run_daemon,
    )
    from repro.service.churn import ChurnConfig, churn_events_for_period

    config = dict(SERVICE_BENCH_CONFIG)
    service_config = ServiceConfig(
        overrides={"n_relays": config["n_relays"]},
        periods=config["periods"],
        churn=ChurnConfig(seed=config["seed"], join_rate=2.0,
                          leave_fraction=0.1),
        execution=ExecutionConfig(full_simulation=False),
    )

    deploy_best = float("inf")
    daemon = None
    for _ in range(repeats):
        seconds, daemon = _timed(
            "bench.service_deployment",
            lambda: run_daemon(service_config),
            periods=config["periods"],
        )
        deploy_best = min(deploy_best, seconds)
    assert daemon.next_period == config["periods"]
    periods_per_minute = config["periods"] / (deploy_best / 60.0)
    print(f"{'service_deployment':22s} {config['periods']} periods "
          f"{deploy_best:8.3f}s  ({periods_per_minute:.1f} periods/min, "
          f"simulated clock)")

    tables = {}
    for n in SERVICE_TABLE_NS:
        table = NetworkTable.from_network(
            synthesize_network(n_relays=n, seed=71)
        )
        snapshot = Snapshot(
            next_period=1,
            table=table,
            history={fp: (row.capacity, 0) for fp, row in table.rows.items()},
            published=1,
            config=service_config,
        )
        write_best = restore_best = float("inf")
        encoded = None
        for _ in range(max(repeats, 2)):
            seconds, encoded = _timed(
                "bench.service_checkpoint_write",
                lambda: json.dumps({"type": "snapshot", **snapshot.to_dict()}),
                n_relays=n,
            )
            write_best = min(write_best, seconds)
            seconds, restored = _timed(
                "bench.service_checkpoint_restore",
                lambda: Snapshot.from_dict(json.loads(encoded)),
                n_relays=n,
            )
            restore_best = min(restore_best, seconds)
        assert len(restored.table) == n

        churn_config = ChurnConfig(seed=config["seed"], join_rate=20.0,
                                   leave_fraction=0.02)
        members = table.fingerprints()
        churn_best = float("inf")
        counts = None
        for _ in range(max(repeats, 2)):
            scratch = NetworkTable(dict(table.rows))

            def derive_and_apply():
                events = churn_events_for_period(churn_config, 1, members)
                return scratch.apply_churn(events)

            seconds, counts = _timed(
                "bench.service_churn_apply", derive_and_apply, n_relays=n
            )
            churn_best = min(churn_best, seconds)
        tables[str(n)] = {
            "checkpoint_write_seconds": round(write_best, 5),
            "checkpoint_restore_seconds": round(restore_best, 5),
            "checkpoint_bytes": len(encoded),
            "churn_apply_seconds": round(churn_best, 5),
            "churn_events_applied": sum(counts.values()),
        }
        print(f"{'service_table':22s} {n:>7d} relays  checkpoint "
              f"{write_best * 1e3:7.2f}ms write / {restore_best * 1e3:7.2f}ms "
              f"restore  churn {churn_best * 1e3:7.2f}ms")

    return {
        "describe": (
            "continuous daemon: analytic deployment throughput on the "
            "simulated clock, snapshot write/restore cost, and churn "
            "derive+apply cost per network-table size"
        ),
        "config": config,
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "deployment": {
            "periods": config["periods"],
            "n_relays": config["n_relays"],
            "seconds": round(deploy_best, 4),
            "periods_per_minute": round(periods_per_minute, 2),
        },
        "tables": tables,
    }


#: Adversarial-round bench config: a mixed round of the four §5 attack
#: behaviours (all of which now compile into the kernel) plus honest
#: relays, timed on the stateful engine loop vs the vectorized kernel.
ATTACKS_BENCH_CONFIG = dict(n_specs=48, seed=37)


def _adversarial_round_specs(n_specs: int, seed: int):
    """One adversarial round: the four attacks cycled across relays."""
    from repro.attacks.relays import (
        ForgingRelayBehavior,
        RatioCheatingRelayBehavior,
        SelectiveCapacityRelayBehavior,
        TrafficLiarRelayBehavior,
    )

    behaviors = (
        lambda s: TrafficLiarRelayBehavior(lie_factor=25.0),
        lambda s: RatioCheatingRelayBehavior(),
        lambda s: ForgingRelayBehavior(forge_fraction=0.4, seed=s),
        lambda s: SelectiveCapacityRelayBehavior(seed=s),
        lambda s: None,  # honest relays interleave with the attackers
        lambda s: None,
    )
    params = FlashFlowParams()
    team = quick_team(seed=seed).team
    specs = []
    for i in range(n_specs):
        capacity = mbit(80 + 35 * (i % 13))
        specs.append(
            MeasurementSpec(
                target=Relay.with_capacity(
                    f"adv{i}", capacity, seed=seed + i,
                    behavior=behaviors[i % len(behaviors)](seed + 100 + i),
                ),
                assignments=allocate_capacity(
                    team, params.allocation_factor * capacity
                ),
                params=params,
                seed=seed + i,
                background_demand=mbit(20),
                enforce_admission=False,
            )
        )
    return specs


def measure_attacks(repeats: int) -> dict:
    """Compiled-adversary vs stateful wall time for an adversarial round.

    The four common §5 behaviours carry kernel programs, so a round
    full of attackers runs through the vectorized array walk with no
    stateful fallback. Times the same mixed adversarial round (attacks
    plus honest relays, background traffic on) as a stateful
    ``engine.run`` loop and as one ``run_specs`` call on the vector
    backend, verifies bit-identical estimates and failure flags, and
    records the inflation-sweep summary (every grid point under the
    1/(1-r) bound).
    """
    from repro.attacks.sweep import inflation_sweep
    from repro.kernel import run_specs
    from repro.obs.metrics import get_registry

    config = dict(ATTACKS_BENCH_CONFIG)
    rows: dict[str, float] = {}
    signatures = {}
    for name in ("stateful_loop", "compiled_kernel"):
        best = float("inf")
        for _ in range(repeats):
            specs = _adversarial_round_specs(config["n_specs"],
                                             config["seed"])
            engine = MeasurementEngine()
            if name == "stateful_loop":
                run = lambda: [engine.run(s) for s in specs]  # noqa: E731
            else:
                fallbacks = get_registry().counter("kernel.specs.fallback")
                before = fallbacks.value
                run = lambda: run_specs(engine, specs, backend="vector")  # noqa: E731
            seconds, outcomes = _timed("bench.attacks_round", run, mode=name)
            if name == "compiled_kernel" and fallbacks.value != before:
                raise SystemExit(
                    "attacks: adversarial specs took the stateful fallback"
                )
            best = min(best, seconds)
            signatures[name] = [
                (o.estimate, o.failed, o.failure_reason) for o in outcomes
            ]
        rows[name] = round(best, 4)
        print(f"{'attacks_round':22s} {name:15s} {best:8.3f}s  "
              f"({config['n_specs']} adversarial specs)")
    identical = signatures["stateful_loop"] == signatures["compiled_kernel"]
    if not identical:  # pragma: no cover - a correctness regression
        raise SystemExit("attacks: kernel disagrees with the stateful loop")

    points = inflation_sweep(
        behaviors=("traffic-liar", "ratio-cheater", "collusion"),
        fractions=(0.25,),
        n_relays=10,
    )
    if not all(p.within_bound for p in points):  # pragma: no cover
        raise SystemExit("attacks: an inflation-sweep point broke the bound")
    print(f"{'attacks_sweep':22s} {len(points)} points, worst inflation "
          f"{max(p.max_inflation for p in points):.3f} "
          f"(bound {points[0].bound:.3f})")
    return {
        "describe": (
            "mixed adversarial round (traffic liar, ratio cheater, "
            "forger, selective capacity, honest): stateful engine loop "
            "vs the compiled kernel walk, plus the inflation-sweep "
            "bound check"
        ),
        "config": config,
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "seconds": rows,
        "speedup_compiled_vs_stateful": round(
            rows["stateful_loop"] / rows["compiled_kernel"], 2
        ),
        "identical_estimates": identical,
        "inflation_sweep": [
            {
                "behavior": p.behavior,
                "adversary_fraction": p.adversary_fraction,
                "max_inflation": round(p.max_inflation, 4),
                "bound": round(p.bound, 4),
                "within_bound": p.within_bound,
                "torflow_inflation": p.torflow_inflation,
            }
            for p in points
        ],
    }


BENCHES = {
    "fig06_campaign": {
        "describe": "Figure 6 accuracy grid, 30 s slots",
        "timer": lambda mode, repeats: _time_spec_campaign(
            fig06_specs, mode, repeats
        ),
        "slot_seconds": 30,
    },
    "fig15_campaign": {
        "describe": "Figure 15/16 multiplier sweep, 60 s slots",
        "timer": lambda mode, repeats: _time_spec_campaign(
            fig15_specs, mode, repeats
        ),
        "slot_seconds": 60,
    },
    "network_campaign_200": {
        "describe": "Whole-network campaign, 200 synthesized relays",
        "timer": _time_network_campaign,
        "slot_seconds": 30,
    },
}


def run_benches(repeats: int) -> dict:
    # Warm the process pool (fork + import cost is a one-time constant,
    # not part of any campaign's steady-state cost).
    MeasurementEngine().run_many(fig06_specs(repetitions=1)[:16], backend="process")

    report = {
        "schema": "flashflow-bench-kernel/1",
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "benches": {},
    }
    for name, bench in BENCHES.items():
        rows: dict[str, float] = {}
        signatures = {}
        count = 0
        for mode in BACKENDS:
            seconds, signature, count = bench["timer"](mode, repeats)
            rows[mode] = round(seconds, 4)
            signatures[mode] = signature
            print(f"{name:22s} {mode:11s} {seconds:8.3f}s  ({count} measurements)")
        identical = len({repr(s) for s in signatures.values()}) == 1
        entry = {
            "describe": bench["describe"],
            "measurements": count,
            "slot_seconds": bench["slot_seconds"],
            "seconds": rows,
            "speedup_process_vs_serial": round(
                rows["serial"] / rows["process"], 2
            ),
            "identical_estimates": identical,
        }
        if not identical:  # pragma: no cover - a correctness regression
            raise SystemExit(
                f"{name}: backends disagree on estimates: {signatures}"
            )
        report["benches"][name] = entry

    overhead = measure_api_overhead(repeats)
    if not overhead["identical_estimates"]:  # pragma: no cover
        raise SystemExit("api_overhead: API and direct paths disagree")
    if not overhead["within_2pct"]:  # pragma: no cover
        raise SystemExit(
            f"api_overhead: scenario-API path costs "
            f"{overhead['overhead_fraction'] * 100:.2f}% (> 2% budget)"
        )
    report["api_overhead"] = overhead
    report["shadow_flow"] = measure_shadow_flow(repeats)
    report["analytic"] = measure_analytic(repeats)
    report["scale"] = measure_scale(repeats)
    report["stage_breakdown"] = measure_stages(repeats)
    report["service"] = measure_service(repeats)
    report["attacks"] = measure_attacks(repeats)
    report["lint"] = measure_lint(repeats)
    return report


def measure_lint(repeats: int) -> dict:
    """Full-tree wall time of the determinism & layering lint.

    Times ``repro.analysis`` (parse + all rules + suppression filter +
    baseline match) over the whole ``src/`` tree -- the exact work the
    CI ``lint`` job does on every push. Budget: the full tree must lint
    in under 5 seconds, so the lint stays cheap enough to run locally
    before every commit rather than only in CI.
    """
    from repro.analysis import load_baseline, match_baseline, run_paths

    root = pathlib.Path(__file__).resolve().parents[1]
    src = root / "src"
    baseline_path = root / ".ff-lint-baseline.json"
    best = float("inf")
    for _ in range(repeats):
        seconds, findings = _timed(
            "bench.lint_tree", lambda: run_paths([src], root=root)
        )
        best = min(best, seconds)
    entries = load_baseline(baseline_path)
    new, matched, stale = match_baseline(findings, entries)
    if new or stale:
        raise SystemExit(
            f"lint bench: tree is not clean ({len(new)} new, "
            f"{len(stale)} stale) -- fix or --update-baseline first"
        )
    n_files = sum(1 for _ in src.rglob("*.py"))
    if best >= 5.0:
        raise SystemExit(
            f"lint bench: full tree took {best:.2f}s (>= 5s budget)"
        )
    return {
        "generated_unix": int(time.time()),
        "repeats": repeats,
        "files_linted": n_files,
        "wall_seconds_full_tree": round(best, 4),
        "files_per_second": round(n_files / best, 1),
        "findings_baselined": len(matched),
        "budget_seconds": 5.0,
    }


def _merge_block(output: pathlib.Path, key: str, block: dict) -> None:
    """Merge one bench block into the output JSON, leaving the rest.

    Each block carries its own ``generated_unix``/``repeats`` provenance,
    so a partial re-run never inherits another bench's timestamp.
    """
    report = (
        json.loads(output.read_text())
        if output.exists()
        else {"schema": "flashflow-bench-kernel/1"}
    )
    report[key] = block
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per path (best-of-N)")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--shadow", action="store_true",
        help="run only the shadow flow-simulator bench and merge its "
             "block into the existing output JSON",
    )
    parser.add_argument(
        "--analytic", action="store_true",
        help="run only the analytic-kernel bench and merge its block "
             "into the existing output JSON",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="run only the Tor-scale materialization/round bench and "
             "merge its block into the existing output JSON",
    )
    parser.add_argument(
        "--stages", action="store_true",
        help="run only the traced stage-breakdown bench and merge its "
             "block into the existing output JSON",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="run only the continuous-daemon bench and merge its block "
             "into the existing output JSON",
    )
    parser.add_argument(
        "--attacks", action="store_true",
        help="run only the adversarial-round bench (compiled vs "
             "stateful) and merge its block into the existing output "
             "JSON",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run only the full-tree static-analysis bench and merge "
             "its block into the existing output JSON",
    )
    args = parser.parse_args()

    if args.shadow or args.analytic or args.scale \
            or args.stages or args.service or args.attacks or args.lint:
        # Merge only the requested blocks; the other benches' numbers
        # (and the top-level timestamp describing them) are untouched.
        if args.shadow:
            shadow = measure_shadow_flow(args.repeats)
            _merge_block(args.output, "shadow_flow", shadow)
            print(f"  shadow_flow: vector "
                  f"{shadow['speedup_vector_vs_stateful']}x vs stateful")
        if args.analytic:
            analytic = measure_analytic(args.repeats)
            _merge_block(args.output, "analytic", analytic)
            print(f"  analytic: kernel "
                  f"{analytic['speedup_analytic_vs_stateful']}x vs "
                  f"stateful loop")
        if args.scale:
            scale = measure_scale(args.repeats)
            _merge_block(args.output, "scale", scale)
            biggest = scale["networks"][str(max(SCALE_NS))]
            print(f"  scale: {max(SCALE_NS)} relays materialize in "
                  f"{biggest['materialize_seconds']}s")
        if args.stages:
            stages = measure_stages(args.repeats)
            _merge_block(args.output, "stage_breakdown", stages)
            print(f"  stage_breakdown: campaign "
                  f"{stages['campaign_wall_seconds']}s across "
                  f"{len(stages['wall_seconds_by_stage'])} stages")
        if args.service:
            service = measure_service(args.repeats)
            _merge_block(args.output, "service", service)
            print(f"  service: "
                  f"{service['deployment']['periods_per_minute']} "
                  f"periods/min on the simulated clock")
        if args.attacks:
            attacks = measure_attacks(args.repeats)
            _merge_block(args.output, "attacks", attacks)
            print(f"  attacks: compiled "
                  f"{attacks['speedup_compiled_vs_stateful']}x vs "
                  f"stateful adversarial round")
        if args.lint:
            lint = measure_lint(args.repeats)
            _merge_block(args.output, "lint", lint)
            print(f"  lint: {lint['files_linted']} files in "
                  f"{lint['wall_seconds_full_tree']}s "
                  f"({lint['files_per_second']} files/s)")
        return

    report = run_benches(args.repeats)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    for name, entry in report["benches"].items():
        print(
            f"  {name}: process {entry['speedup_process_vs_serial']}x vs serial"
        )
    print(
        f"  api_overhead: "
        f"{report['api_overhead']['overhead_fraction'] * 100:+.2f}% "
        f"(budget 2%)"
    )
    print(
        f"  shadow_flow: vector "
        f"{report['shadow_flow']['speedup_vector_vs_stateful']}x vs stateful"
    )
    print(
        f"  analytic: kernel "
        f"{report['analytic']['speedup_analytic_vs_stateful']}x vs "
        f"stateful loop"
    )


if __name__ == "__main__":
    main()
