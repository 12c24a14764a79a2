"""CLI for the continuous bwauth daemon.

Usage::

    PYTHONPATH=src python -m repro.service run --periods 4 \\
        --journal /tmp/service.jsonl --out-dir /tmp/v3bw --stop-after 2
    PYTHONPATH=src python -m repro.service resume --journal /tmp/service.jsonl
    PYTHONPATH=src python -m repro.service status --journal /tmp/service.jsonl

``run`` starts a fresh deployment of a registered scenario (default
``continuous-deployment``); ``--stop-after N`` exits cleanly at the
period-``N`` boundary (the CI smoke job's simulated kill). ``resume``
rebuilds the daemon from the journal's last snapshot and runs the
remaining periods -- bit-identical to never having been killed.
``status`` summarizes a journal as JSON. Validate journals with
``python -m repro.obs.validate``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from repro.api.execution import ExecutionConfig
from repro.errors import ReproError
from repro.service.churn import ChurnConfig
from repro.service.daemon import BwauthDaemon, run_daemon, status
from repro.service.state import ServiceConfig


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} must look like key=value"
        )
    key, raw = text.split("=", 1)
    try:
        value: object = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="continuous-deployment",
                        help="registered scenario to deploy continuously")
    parser.add_argument("--periods", type=int, default=5,
                        help="total measurement periods")
    parser.add_argument("--period-seconds", type=float, default=None,
                        help="wall pacing between period starts "
                             "(default: 24h; irrelevant on the "
                             "simulated clock)")
    parser.add_argument("--publish-every", type=int, default=1,
                        help="publish a bandwidth file every N periods")
    parser.add_argument("--out-dir", default=None,
                        help="directory v3bw files are written to")
    parser.add_argument("--clock", choices=("simulated", "wall"),
                        default="simulated")
    parser.add_argument("--seed", type=int, default=None,
                        help="service seed (default: the scenario's)")
    parser.add_argument("--analytic", action="store_true",
                        help="run periods through the analytic kernel "
                             "(fast; used by CI smoke)")
    parser.add_argument("--no-churn", action="store_true",
                        help="freeze the network for the whole deployment")
    parser.add_argument("--churn-seed", type=int, default=0)
    parser.add_argument("--join-rate", type=float, default=2.0,
                        help="expected relays joining per period (Poisson)")
    parser.add_argument("--leave-fraction", type=float, default=0.05,
                        help="fraction of relays leaving per period")
    parser.add_argument("--capacity-change-fraction", type=float,
                        default=0.0,
                        help="fraction of relays whose capacity drifts "
                             "per period")
    parser.add_argument("-o", "--override", action="append", default=[],
                        type=_parse_override, metavar="KEY=VALUE",
                        help="scenario factory override (repeatable)")


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    churn = None
    if not args.no_churn:
        churn = ChurnConfig(
            seed=args.churn_seed,
            join_rate=args.join_rate,
            leave_fraction=args.leave_fraction,
            capacity_change_fraction=args.capacity_change_fraction,
        )
    kwargs: dict = {
        "scenario": args.scenario,
        "overrides": dict(args.override),
        "periods": args.periods,
        "publish_every": args.publish_every,
        "out_dir": args.out_dir,
        "churn": churn,
        "clock": args.clock,
        "seed": args.seed,
    }
    if args.period_seconds is not None:
        kwargs["period_seconds"] = args.period_seconds
    if args.analytic:
        kwargs["execution"] = ExecutionConfig(full_simulation=False)
    return ServiceConfig(**kwargs)


def _summarize(daemon: BwauthDaemon) -> dict:
    return {
        "next_period": daemon.next_period,
        "complete": daemon.next_period >= daemon.config.periods,
        "relays": len(daemon.table),
        "published": daemon.published_count,
        "periods_run": [stats["period"] for stats in daemon.period_stats],
        "median_error_vs_truth": [
            stats["median_error_vs_truth"] for stats in daemon.period_stats
        ],
        "metrics": daemon.registry.snapshot()["counters"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="start a fresh deployment")
    _add_run_arguments(run_parser)
    run_parser.add_argument("--journal", default=None,
                            help="append-only JSONL journal path "
                                 "(required for later resume)")
    run_parser.add_argument("--stop-after", type=int, default=None,
                            metavar="N",
                            help="exit cleanly at the period-N boundary")

    resume_parser = sub.add_parser(
        "resume", help="resume a killed deployment from its journal"
    )
    resume_parser.add_argument("--journal", required=True)
    resume_parser.add_argument("--stop-after", type=int, default=None,
                               metavar="N")

    status_parser = sub.add_parser(
        "status", help="summarize a journal as JSON"
    )
    status_parser.add_argument("--journal", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            daemon = run_daemon(
                _config_from_args(args),
                journal_path=args.journal,
                until_period=args.stop_after,
            )
            print(json.dumps(_summarize(daemon), indent=2))
        elif args.command == "resume":
            daemon = BwauthDaemon.resume(args.journal)
            try:
                daemon.run(until_period=args.stop_after)
            finally:
                daemon.close()
            print(json.dumps(_summarize(daemon), indent=2))
        else:
            print(json.dumps(status(args.journal), indent=2))
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
