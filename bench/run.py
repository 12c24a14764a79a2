"""FlashFlow reproduction benchmark: three workloads, one command.

Run every workload (untraced, then one traced run each) and print
every metric by name with its unit::

    python3 bench/run.py

Run one workload the way the benchmark contract invokes it; the last
line of standard output is the JSON result::

    python3 bench/run.py --workload shadow-loadbalance --seed 3 --seconds 36 --trace 0

Each workload runs in fresh interpreters with ``FLASHFLOW_*`` cleared:
two set-up-only children and one measuring child, whose set-up times
give the median ``setup_s``. ``--trace 1`` instead runs one untraced
and one traced child and reports per-layer metrics per pass. Outputs
are checked in every run (see ``workloads.py``); on seed 0 the first
pass must also match the digests pinned in ``pins.json``. A failed
check makes the exit code nonzero. Provenance, every op and the trace
spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"

#: Set-up-only children per untraced run (the measuring child is one more).
SETUP_REPEATS = 2
#: Wall budget of one contract invocation, seconds.
BUDGET_S = 170.0

#: Gated end-to-end metrics of every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "measurements_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "error_p95": "fraction",
}


def monotonic() -> float:
    """A clock shared by every process on the host (set-up spans two)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Child side: one fresh interpreter runs one workload


def child(args) -> dict:
    import resource

    import numpy

    sys.path.insert(0, str(HERE))
    import workloads as wl

    recorder = uninstall = None
    if args.traced:
        import layers

        recorder = layers.SpanRecorder()
        uninstall = layers.install(recorder)
    out_root = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = wl.workloads(out_root)[args.workload]
        params = workload.params(args.small)
        workload.setup(params)
        setup_s = monotonic() - args.spawned_at
        payload = {"setup_s": setup_s, "params": params, "numpy": numpy.__version__}
        if args.child == "setup":
            return payload

        from repro.obs import get_registry

        registry_before = dict(get_registry().snapshot()["counters"])
        timer = wl.Timer(recorder)
        passes = []
        started = last = time.perf_counter()
        # Start another pass while at least half of one (checks
        # included) fits in the measuring window.
        step = 0.0
        while len(passes) < workload.stat_passes or last + step / 2 - started < args.seconds:
            index = len(passes)
            try:
                passes.append(workload.run_pass(params, args.seed, index, timer))
                now = time.perf_counter()
                step, last = now - last, now
            except Exception:
                failed = wl.Pass(index, ops=[wl.Op(f"pass-{index}", failures=[
                    "raised: " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")])])
                passes.append(failed)
                break
            if args.write_pins:
                break
        payload["passes"] = [
            {"index": p.index, "wall_s": p.wall_s,
             "ops": [vars(op) for op in p.ops]}
            for p in passes
        ]
        payload["stats"] = wl.summarize(passes, workload.stat_passes)
        payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            after = get_registry().snapshot()["counters"]
            delta = {k: v - registry_before.get(k, 0) for k, v in after.items()}
            extra = {}
            for p in passes:
                for key, value in p.counts.items():
                    extra[key] = extra.get(key, 0) + value
            payload["layers"] = layers.layer_metrics(
                recorder, len(passes), sum(p.wall_s for p in passes), delta, extra)
            OUT.mkdir(exist_ok=True)
            trace = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            recorder.write(trace, started)
            payload["trace_file"] = str(trace.relative_to(ROOT))
        return payload
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if uninstall is not None:
            uninstall()


# ---------------------------------------------------------------------------
# Launcher side


class ChildFailed(RuntimeError):
    pass


def child_env() -> tuple[dict, list]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLASHFLOW_")}
    cleared = sorted(k for k in os.environ if k.startswith("FLASHFLOW_"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, cleared


def spawn(args, mode: str, traced: bool = False, deadline: float | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--spawned-at", repr(monotonic())]
    if traced:
        cmd.append("--traced")
    if args.small:
        cmd.append("--small")
    if args.write_pins:
        cmd.append("--write-pins")
    timeout = None if deadline is None else max(5.0, deadline - time.monotonic())
    env, _ = child_env()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args.workload} {mode} child timed out") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{args.workload} {mode} child exited {done.returncode}")
    return json.loads(lines[-1])


def ops_of(payload: dict) -> list:
    return [op for p in payload["passes"] for op in p["ops"]]


def check_pins(payload: dict, args) -> None:
    """Seed 0: the first pass's digests must equal the pinned ones."""
    if args.seed != 0:
        return
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pinned = pins.get(args.workload, {}).get("small" if args.small else "full")
    first = payload["passes"][0]["ops"]
    if not pinned:
        first[0]["failures"].append("no pinned digests for this workload")
        return
    seen = set()
    for op in first:
        for key, digest in op["digests"].items():
            label = f"{op['label']}.{key}"
            seen.add(label)
            if label in pinned and pinned[label] != digest:
                op["failures"].append(f"digest {label} differs from the pinned one")
    missing = set(pinned) - seen
    if missing:
        first[-1]["failures"].append(f"{len(missing)} pinned outputs not produced")


def compare_digests(reference: dict, traced: dict) -> None:
    """The traced run must reproduce the untraced run's outputs."""
    expected = {op["label"]: op["digests"] for op in ops_of(reference)}
    for op in ops_of(traced):
        if op["label"] in expected and expected[op["label"]] != op["digests"]:
            op["failures"].append("traced digests differ from the untraced run")


def end_to_end(payload: dict, setup_samples: list) -> tuple[dict, dict]:
    """(gated metrics, report-only metrics) of one untraced child."""
    passes, params = payload["passes"], payload["params"]
    ops = ops_of(payload)
    # A pass that raised has no wall time; its failure fails the run.
    timed = [p for p in passes if p["wall_s"] > 0]
    walls = [p["wall_s"] for p in timed] or [float("nan")]
    rates = [sum(op["measurements"] for op in p["ops"]) / p["wall_s"] for p in timed] or [float("nan")]
    latencies = [op["latency_s"] for op in ops]
    stats = payload["stats"]
    gated = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "measurements_per_s": statistics.median(rates),
        "peak_rss_mb": payload["peak_rss_mb"],
        "error_p95": stats.get("error_p95", float("nan")),
    }
    extra = {"ops": (len(ops), "count"), "passes": (len(passes), "count"),
             "failed_ratio": (sum(1 for op in ops if op["failures"]) / len(ops), "fraction"),
             "weight_error": (stats.get("weight_error", float("nan")), "fraction")}
    if len(latencies) >= 100:
        # The highest decile with at least ten samples beyond it.
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        extra["op_p90_ms"] = (p90 * 1000.0, "ms")
    if "sim_network_hours" in stats:
        extra["sim_network_hours"] = (stats["sim_network_hours"], "h")
    if "ttlb_1m_p50_s" in stats:
        extra["ttlb_1m_p50_s"] = (stats["ttlb_1m_p50_s"], "s")
        # Simulated flow seconds of the performance horizons: one per
        # system (TorFlow, FlashFlow) and load.
        horizon = 2 * len(params["loads"]) * (params["sim_seconds"] + params["warmup_seconds"])
        extra["sim_seconds_per_s"] = (horizon / statistics.median(walls), "s/s")
        extra["torflow_weight_error"] = (stats["torflow_weight_error"], "fraction")
        extra["torflow_ttlb_1m_p50_s"] = (stats["torflow_ttlb_1m_p50_s"], "s")
    return gated, extra


def provenance(args, payload: dict, load_before) -> dict:
    git = {"rev": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            rev, status = (
                subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
                for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain"])
            )
            git = {"rev": rev.stdout.strip() or None, "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    _, cleared = child_env()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "small": args.small, "git": git, "python": platform.python_version(),
        "numpy": payload.get("numpy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()), "params": payload.get("params"),
        "cleared_env": cleared, "out_dir": str(OUT.relative_to(ROOT)),
        "load_model": "closed loop, one client, one process, ExecutionConfig() defaults",
    }


def print_rows(workload: str, rows: dict) -> None:
    for name, (value, unit) in rows.items():
        print(f"{workload:20s} {name:26s} {value:>16.6g} {unit}")


def measure(args, deadline=None) -> dict:
    """The untraced run: set-up samples plus one measuring child."""
    load_before = list(os.getloadavg())
    samples = [spawn(args, "setup", deadline=deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    payload = spawn(args, "run", deadline=deadline)
    check_pins(payload, args)
    gated, extra = end_to_end(payload, samples + [payload["setup_s"]])
    ops = ops_of(payload)
    result = {
        "correct": not any(op["failures"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failures"]),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in gated.items()},
    }
    record = {"provenance": provenance(args, payload, load_before), "result": result,
              "report_only": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "setup_samples": samples + [payload["setup_s"]], "payload": payload}
    write_record(args, "untraced", record)
    print_rows(args.workload, {**{k: (v, END_TO_END[k]) for k, v in gated.items()}, **extra})
    report_failures(args.workload, ops)
    return record


def trace(args, reference=None, deadline=None) -> dict:
    """The traced run: per-layer metrics, checked against an untraced run."""
    load_before = list(os.getloadavg())
    own_reference = reference is None
    if own_reference:
        reference = spawn(args, "run", deadline=deadline)
        check_pins(reference, args)
    payload = spawn(args, "run", traced=True, deadline=deadline)
    check_pins(payload, args)
    compare_digests(reference, payload)
    import layers

    metrics = dict(payload["layers"])
    untraced_wall = statistics.median(p["wall_s"] for p in reference["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in payload["passes"])
    metrics["obs.trace_overhead"] = traced_wall / untraced_wall - 1.0
    # A reference handed in was already counted by the run that made it.
    ops = ops_of(payload) + (ops_of(reference) if own_reference else [])
    result = {
        "correct": not any(op["failures"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _, _ in layers.LAYER_METRICS},
    }
    record = {"provenance": provenance(args, payload, load_before), "result": result,
              "targets": {name: target for name, _, _, target in layers.LAYER_METRICS},
              "trace_file": payload.get("trace_file"), "payload": payload,
              "reference_digests": {op["label"]: op["digests"] for op in ops_of(reference)}}
    write_record(args, "traced", record)
    print_rows(args.workload, {name: (metrics[name], unit)
                               for name, unit, _, _ in layers.LAYER_METRICS})
    report_failures(args.workload, ops)
    return record


def write_record(args, kind: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-{kind}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"# {kind} result and provenance: {path.relative_to(ROOT)}")


def report_failures(workload: str, ops: list) -> None:
    for op in ops:
        for failure in op["failures"]:
            print(f"FAILED {workload} {op['label']}: {failure}", file=sys.stderr)


def write_pins(args) -> None:
    payload = spawn(args, "run")
    first = payload["passes"][0]["ops"]
    failures = [f for op in first for f in op["failures"]]
    if failures:
        raise ChildFailed(f"refusing to pin failing outputs: {failures[:3]}")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(args.workload, {})["small" if args.small else "full"] = {
        f"{op['label']}.{key}": digest for op in first for key, digest in op["digests"].items()
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(first)} ops of {args.workload}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes (self-tests)")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the first pass's digests at seed 0")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.child:
        print(json.dumps(child(args), default=str))
        return 0

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_pins:
            if args.seed != 0:
                parser.error("pins are taken at seed 0")
            for name in [args.workload] if args.workload else names:
                args.workload = name
                write_pins(args)
            return 0
        if args.workload:
            deadline = time.monotonic() + BUDGET_S
            record = (trace(args, deadline=deadline) if args.trace
                      else measure(args, deadline=deadline))
            print(json.dumps(record["result"]))
            return 0 if record["result"]["correct"] else 1

        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            args.workload = name
            untraced = measure(args)
            traced = trace(args, reference=untraced["payload"])
            for record in (untraced, traced):
                result = record["result"]
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                for metric, value in result["metrics"].items():
                    summary["metrics"][f"{name}/{metric}"] = value
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
