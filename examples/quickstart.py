#!/usr/bin/env python
"""Quickstart: describe and run a FlashFlow workload with ``repro.api``.

Every workload is a :class:`repro.api.Scenario` (what to measure) plus
an :class:`repro.api.ExecutionConfig` (how to run it), executed by a
:class:`repro.api.Campaign` that streams per-round progress to
observers. This example measures three relays with known capacities --
one with a good prior, one with a stale prior that forces the
retry-with-doubling loop, one brand new -- and prints the estimates
against ground truth.

Run:  python examples/quickstart.py
"""

import sys

from repro.api import Campaign, ExecutionConfig, ProgressObserver, Scenario
from repro.core.params import FlashFlowParams
from repro.tornet.network import TorNetwork
from repro.tornet.relay import Relay
from repro.units import mbit, to_mbit


def main() -> None:
    params = FlashFlowParams()
    print("FlashFlow parameters (paper §6.1):")
    print(f"  sockets s = {params.n_sockets}, multiplier m = {params.multiplier}")
    print(f"  slot t = {params.slot_seconds}s, eps = ({params.epsilon1}, "
          f"{params.epsilon2}), ratio r = {params.ratio}")
    print(f"  allocation factor f = {params.allocation_factor:.3f}")
    print(f"  malicious inflation bound 1/(1-r) = {params.inflation_bound:.2f}x")
    print()

    # --- Describe the workload -------------------------------------------
    # An explicit three-relay network: good prior, stale prior, no prior.
    network = TorNetwork()
    network.add(Relay.with_capacity("demo-relay", mbit(250), seed=1))
    network.add(Relay.with_capacity("stale-relay", mbit(600), seed=2))
    network.add(Relay.with_capacity("new-relay", mbit(30), seed=3))
    scenario = Scenario(
        name="quickstart",
        network=network,
        priors={
            "demo-relay": mbit(250),   # accurate prior -> one slot
            "stale-relay": mbit(40),   # stale prior -> z0 doubles until covered
            # new-relay absent -> seeded at the 75th-percentile new_relay_seed
        },
        seed=42,
    )
    execution = ExecutionConfig()  # full per-second simulation, 8 attempts max

    # --- Run it, streaming per-round progress ----------------------------
    report = Campaign(scenario, execution).run(
        observers=[ProgressObserver(stream=sys.stdout)]
    )
    print()

    truths = {"demo-relay": mbit(250), "stale-relay": mbit(600),
              "new-relay": mbit(30)}
    for fp, truth in truths.items():
        estimate = report.estimates[fp]
        attempts = [m for m in report.timeline() if m.fingerprint == fp]
        lo, hi = params.accuracy_interval(truth)
        print(f"{fp}: true {to_mbit(truth):.0f} Mbit/s -> estimate "
              f"{to_mbit(estimate):.1f} Mbit/s in {len(attempts)} slot(s); "
              f"within ((1-eps1)x, (1+eps2)x) = ({to_mbit(lo):.0f}, "
              f"{to_mbit(hi):.0f}): {lo <= estimate <= hi}")

    print()
    print(f"Campaign: {report.measurements_run} measurements, "
          f"{report.slots_elapsed} slots, "
          f"{report.cells_checked} echo cells verified, "
          f"median |error| vs truth "
          f"{report.median_error_vs_truth() * 100:.1f}%")
    print("Canned paper scenarios: "
          "python -m repro.api --list  (repro.api.run_scenario runs them)")


if __name__ == "__main__":
    main()
