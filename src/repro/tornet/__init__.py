"""Tor network substrate.

Stands in for the authors' patched Tor v0.3.5.7 and for the live network:
fixed-size cells, relay-side cell crypto, token-bucket rate limiting, the
observed-bandwidth self-estimation heuristic, single-threaded CPU cell
processing, the KIST-style normal scheduler and FlashFlow's separate
measurement scheduler, circuits with window flow control, server
descriptors and consensuses, directory authorities (including the
shared-randomness protocol FlashFlow's schedule seeds from), weighted path
selection, and a synthetic whole-network generator calibrated to the
July-2019 Tor consensus shape used in paper §7.
"""

from repro.tornet.authority import DirectoryAuthority, SharedRandomness
from repro.tornet.cell import Cell, CellType
from repro.tornet.circuit import Circuit, circuit_rate_cap
from repro.tornet.consensus import Consensus, RouterStatus
from repro.tornet.cpu import CpuModel
from repro.tornet.descriptor import ServerDescriptor
from repro.tornet.kist import KIST_PER_SOCKET_CAP, kist_rate_cap
from repro.tornet.meassched import measurement_rate_cap
from repro.tornet.network import TorNetwork, synthesize_network
from repro.tornet.observedbw import ObservedBandwidth
from repro.tornet.pathsel import PathSelector
from repro.tornet.relay import Relay, RelayBehavior
from repro.tornet.relaycrypto import CircuitKey, derive_shared_key
from repro.tornet.tokenbucket import TokenBucket

__all__ = [
    "Cell",
    "CellType",
    "Circuit",
    "CircuitKey",
    "Consensus",
    "CpuModel",
    "DirectoryAuthority",
    "KIST_PER_SOCKET_CAP",
    "ObservedBandwidth",
    "PathSelector",
    "Relay",
    "RelayBehavior",
    "RouterStatus",
    "ServerDescriptor",
    "SharedRandomness",
    "TokenBucket",
    "TorNetwork",
    "circuit_rate_cap",
    "derive_shared_key",
    "kist_rate_cap",
    "measurement_rate_cap",
    "synthesize_network",
]
