"""Flow-level whole-network Tor simulation (paper §7's Shadow experiments).

The paper evaluates load balancing in Shadow, a packet-level discrete
event simulator, on a private Tor network scaled to 5% of the public
network: 328 relays, 3 DirAuths, 397 TGen clients modelling 40k users via
Markov traffic models, and 40 benchmark clients downloading 50 KiB / 1 MiB
/ 5 MiB files with 15/60/120-second timeouts.

This package rebuilds that experiment at flow granularity: circuits are
built with weighted path selection, per-second transfer rates come from a
vectorised max-min fair allocation over relay capacities, and benchmark
clients record time-to-first-byte, time-to-last-byte, and timeouts. The
experiment pipeline (:mod:`repro.shadow.experiment`) reproduces Figure 8
(measurement error CDFs) and Figure 9 (performance under TorFlow vs
FlashFlow weights at 100/115/130% load).
"""

from repro.shadow.benchclient import BenchmarkClient, TransferRecord
from repro.shadow.config import ShadowConfig, build_network
from repro.shadow.experiment import (
    ExperimentResult,
    compare_systems,
    flashflow_weights_for,
    torflow_weights_for,
)
from repro.shadow.flows import waterfill
from repro.shadow.simulator import NetworkSimulator, SimulationMetrics
from repro.shadow.trafficgen import MarkovLoadGenerator

__all__ = [
    "BenchmarkClient",
    "ExperimentResult",
    "MarkovLoadGenerator",
    "NetworkSimulator",
    "ShadowConfig",
    "SimulationMetrics",
    "TransferRecord",
    "build_network",
    "compare_systems",
    "flashflow_weights_for",
    "torflow_weights_for",
    "waterfill",
]
