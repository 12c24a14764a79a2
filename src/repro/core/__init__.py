"""FlashFlow: the paper's primary contribution.

A FlashFlow deployment is a set of *measurement teams*, each coordinated by
a Bandwidth Authority (BWAuth). A team actively saturates a target relay
with measurement traffic from multiple measurers at once, while the relay
continues to forward a bounded fraction ``r`` of normal client traffic.
Because the relay must actually receive, decrypt, and return measurement
cells -- with contents spot-checked at random -- its demonstrated capacity
cannot be faked, bounding a malicious relay's inflation to ``1/(1-r)``
(1.33x at the default r = 0.25).

Public API highlights:

- :class:`FlashFlowParams` -- all protocol parameters with paper defaults,
- :class:`Measurer` / :func:`allocate_capacity` -- team modelling,
- :class:`MeasurementEngine` -- the batched, parallel execution core
  (precomputed per-assignment invariants, ``run_many`` concurrency, the
  analytic fast path),
- :func:`run_measurement` -- one authenticated measurement slot,
- :class:`FlashFlowAuthority` -- the BWAuth measurement loop (old/new
  relays, retry-with-doubling),
- :class:`PeriodSchedule` -- the seeded randomized measurement schedule,
- :func:`measure_network` -- a full measurement campaign,
- :class:`BandwidthFile` -- the output consumed by the DirAuths,
- :func:`aggregate_bwauth_votes` -- median aggregation across BWAuths.
"""

from repro.core.allocation import (
    MeasurerAssignment,
    allocate_capacity,
    allocate_evenly,
)
from repro.core.bwauth import FlashFlowAuthority, RelayEstimate
from repro.core.deployment import Deployment, PeriodRecord
from repro.core.engine import (
    MeasurementEngine,
    MeasurementNoise,
    MeasurementSpec,
)
from repro.core.bwfile import BandwidthFile, BandwidthLine
from repro.core.aggregation import aggregate_bwauth_votes
from repro.core.measurement import MeasurementOutcome, run_measurement
from repro.core.measurer import Measurer, MeasuringProcess
from repro.core.messages import MessageType, ProtocolMessage, SigningIdentity
from repro.core.netmeasure import CampaignResult, measure_network
from repro.core.params import FlashFlowParams
from repro.core.schedule import PeriodSchedule, greedy_pack_slots
from repro.core.session import MeasurementSession, SessionTranscript
from repro.core.verification import detection_probability

__all__ = [
    "BandwidthFile",
    "Deployment",
    "MeasurementSession",
    "PeriodRecord",
    "SessionTranscript",
    "allocate_evenly",
    "BandwidthLine",
    "CampaignResult",
    "FlashFlowAuthority",
    "FlashFlowParams",
    "MeasurementEngine",
    "MeasurementNoise",
    "MeasurementOutcome",
    "MeasurementSpec",
    "Measurer",
    "MeasurerAssignment",
    "MeasuringProcess",
    "MessageType",
    "PeriodSchedule",
    "ProtocolMessage",
    "RelayEstimate",
    "SigningIdentity",
    "aggregate_bwauth_votes",
    "allocate_capacity",
    "detection_probability",
    "greedy_pack_slots",
    "measure_network",
    "run_measurement",
]
