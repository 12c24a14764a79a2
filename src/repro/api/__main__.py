"""CLI smoke runner for registered scenarios (used by CI).

Usage::

    PYTHONPATH=src python -m repro.api --list
    PYTHONPATH=src python -m repro.api fig06-accuracy --quiet
    PYTHONPATH=src python -m repro.api whole-network-efficiency -o n_relays=50

Runs the named scenario through :class:`repro.api.Campaign` with a
progress observer and prints the report summary as JSON. ``-o
key=value`` overrides are parsed as Python literals where possible.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from contextlib import nullcontext
from dataclasses import replace

from repro.api import (
    Campaign,
    ProgressObserver,
    default_execution_for,
    get_scenario,
    scenario_registry,
)
from repro.obs import (
    Tracer,
    get_registry,
    maybe_profile,
    render_summary,
    use_tracer,
)


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api", description=__doc__
    )
    parser.add_argument("scenario", nargs="?", help="registered scenario name")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a flashflow-trace/1 JSONL trace of "
                             "the run (manifest, campaign/round/kernel "
                             "spans, metrics snapshot) to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the span/metrics summary table to "
                             "stderr after the run (implies recording; "
                             "with --trace the same tracer feeds both)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="cProfile the run into PATH (pstats; a "
                             "sibling PATH.txt carries the top rows)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-round progress lines")
    parser.add_argument("-o", "--override", action="append", default=[],
                        type=_parse_override, metavar="KEY=VALUE",
                        help="scenario factory override (repeatable)")
    args = parser.parse_args(argv)

    if args.list or not args.scenario:
        for name, entry in sorted(scenario_registry().items()):
            print(f"{name:28s} {entry.description}")
        return 0 if args.list else 2

    execution = replace(default_execution_for(args.scenario), trace=args.trace)
    observers = () if args.quiet else (ProgressObserver(stream=sys.stderr),)
    campaign = Campaign(
        get_scenario(args.scenario, **dict(args.override)), execution
    )
    # --metrics without --trace records in memory only: install an
    # ambient tracer for the run (with --trace the campaign's own JSONL
    # tracer records, and the summary renders from it afterwards).
    ambient = (
        use_tracer(Tracer())
        if args.metrics and not args.trace
        else nullcontext()
    )
    with maybe_profile(args.profile), ambient:
        report = campaign.run(observers=observers)
    print(json.dumps(report.to_dict(), indent=2))
    if args.metrics:
        print(render_summary(campaign.tracer, get_registry()),
              file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
