#!/usr/bin/env python
"""TorFlow vs FlashFlow load balancing in a scaled private network (§7).

Runs the whole Figure 8/9 pipeline at a small scale through the API
front door (:func:`repro.api.compare_load_balancing`; the FlashFlow
measurement phase inside it is a scenario-API campaign on the
vectorized kernel): generate a scaled network, produce weights with
both systems, compare error metrics, then race benchmark clients under
each weight set.

Run:  python examples/load_balancing_comparison.py
(takes ~30-60 seconds)
"""

import statistics

from repro.api import compare_load_balancing
from repro.shadow.config import ShadowConfig

SIZES = {"50 KiB": 50 * 1024, "1 MiB": 1024 * 1024, "5 MiB": 5 * 1024 * 1024}


def main() -> None:
    config = ShadowConfig(
        n_relays=100,
        n_markov_clients=120,
        n_benchmark_clients=16,
        sim_seconds=300,
        warmup_seconds=80,
        seed=5,
    )
    print(f"Scaled network: {config.n_relays} relays, "
          f"{config.n_markov_clients} background clients, "
          f"{config.n_benchmark_clients} benchmark clients")
    result = compare_load_balancing(config, loads=(1.0, 1.3), seed=5)

    print("\n-- Figure 8 analogue: weight accuracy --")
    print(f"  network weight error: "
          f"FlashFlow {result.network_weight_error('flashflow') * 100:.1f}%  "
          f"vs TorFlow {result.network_weight_error('torflow') * 100:.1f}%"
          f"   (paper: 4% vs 29%)")
    ff_cap_err = statistics.median(
        result.flashflow_capacity_errors().values()
    )
    print(f"  FlashFlow relay capacity error (median): "
          f"{ff_cap_err * 100:.1f}%   (paper: 16%)")

    print("\n-- Figure 9 analogue: client performance at 100% load --")
    for label, size in SIZES.items():
        tf = result.run_for("torflow", 1.0).ttlb_stats(size)
        ff = result.run_for("flashflow", 1.0).ttlb_stats(size)
        print(f"  {label:>7}: median TTLB {tf['median']:.1f}s (TF) -> "
              f"{ff['median']:.1f}s (FF), "
              f"std {tf['std']:.1f} -> {ff['std']:.1f}")

    for load in (1.0, 1.3):
        tf = result.run_for("torflow", load)
        ff = result.run_for("flashflow", load)
        print(f"  load {int(load * 100)}%: timeouts/client median "
              f"{tf.median_error_rate() * 100:.1f}% (TF) vs "
              f"{ff.median_error_rate() * 100:.1f}% (FF); throughput "
              f"{tf.metrics.median_throughput() / 1e9:.2f} vs "
              f"{ff.metrics.median_throughput() / 1e9:.2f} Gbit/s")

    print("\nFlashFlow balances the same network better at every load -- "
          "the paper's central §7 result.")


if __name__ == "__main__":
    main()
