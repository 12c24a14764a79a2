"""Columnar (structure-of-arrays) network state for Tor-scale campaigns.

A :class:`NetworkColumns` holds the whole network's relay state as
fingerprint-indexed numpy arrays -- capacities, rate limits, token-bucket
state, Guard/Exit flags, jitter -- and :class:`ColumnarTorNetwork`
preserves the existing :class:`~repro.tornet.network.TorNetwork` /
:class:`~repro.tornet.relay.Relay` API as thin views over those arrays.
Views are real :class:`Relay` instances (created lazily and cached, so
object identity behaves like the plain dict-of-relays network); their
token buckets read and write the column arrays, which stay the source of
truth for bucket state.

Two things make Tor-scale (10^5--10^6 relays) networks practical:

- :func:`synthesize_columns` draws the whole capacity/flag sample
  column-wise.  The uniform stream comes from a numpy ``RandomState``
  transplanted to the exact MT19937 position of the CPython
  ``random.Random`` the scalar loop uses (both wrap the same MT19937
  core and the same 53-bit output formula), and the lognormal chain is
  evaluated with *scalar* ``math`` transcendentals -- ``np.log``/
  ``np.exp`` are not bit-identical to ``math.log``/``math.exp`` on every
  libm, and bit-identity with the object path is the contract here.
- Aggregates (:meth:`ColumnarTorNetwork.capacities`,
  ``total_capacity``/``max_capacity``/``percentile_capacity``) run as
  array reductions that replicate the scalar arithmetic exactly
  (left-to-right ``sum`` over the materialized list; the same
  interpolation expression), falling back to the object path whenever
  relays were added or replaced.

Per-second jitter is not columnar: each relay draws it from its own
CPython stream (:meth:`Relay.draw_noise_series`), wrapped as an array by
:func:`noise_row`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, MutableMapping

import numpy as np

from repro.rng import fork
from repro.tornet.network import (
    _MIN_CAPACITY,
    JULY_2019_MAX_CAPACITY,
    JULY_2019_RELAY_COUNT,
    _LOGNORMAL_MEDIAN,
    _LOGNORMAL_SIGMA,
    TorNetwork,
)
from repro.tornet.relay import Relay
from repro.tornet.tokenbucket import TokenBucket
from repro.units import mbit

_TWOPI = 2.0 * math.pi

#: Interned flag sets for the four synthesized flag combinations; the
#: object path builds an equal-by-value frozenset per relay.
_FLAGS = {
    (False, False): frozenset({"Running", "Valid", "Fast"}),
    (True, False): frozenset({"Running", "Valid", "Fast", "Guard"}),
    (False, True): frozenset({"Running", "Valid", "Fast", "Exit"}),
    (True, True): frozenset({"Running", "Valid", "Fast", "Guard", "Exit"}),
}


# ----------------------------------------------------------------------
# MT19937 stream bridging (CPython random.Random <-> numpy RandomState)
# ----------------------------------------------------------------------


def transplant_state(rand_state) -> np.random.RandomState:
    """A ``RandomState`` at exactly a ``random.Random``'s MT19937 position.

    ``rand_state`` is ``random.Random.getstate()``.  Both generators wrap
    the same MT19937 core and produce doubles with the same
    ``genrand_res53`` formula, so after the transplant their uniform
    streams are bit-identical.
    """
    rs = np.random.RandomState()
    rs.set_state(
        ("MT19937", np.array(rand_state[1][:-1], dtype=np.uint32),
         rand_state[1][-1])
    )
    return rs


# ----------------------------------------------------------------------
# The column store
# ----------------------------------------------------------------------


@dataclass
class NetworkColumns:
    """Fingerprint-indexed arrays holding the network's relay state.

    The arrays are the source of truth: relay views read capacities and
    flags from here at construction and proxy token-bucket state through
    :class:`ColumnTokenBucket`, so settling a measured walk on a view
    updates ``bucket_tokens`` in place.
    """

    prefix: str
    #: Relay ``seed`` is ``seed_base + index`` (the synthesizer's layout).
    seed_base: int
    fingerprints: list[str]
    #: Intrinsic (CPU-bound) Tor capacity, bit/s.
    capacity: np.ndarray
    #: Host access-link capacity, bit/s.
    link_capacity: np.ndarray
    #: Operator rate limit, bit/s; NaN encodes "unlimited".
    rate_limit: np.ndarray
    #: Token-bucket state in bytes (zeros where ``has_bucket`` is False).
    bucket_tokens: np.ndarray
    bucket_rate: np.ndarray
    bucket_burst: np.ndarray
    has_bucket: np.ndarray
    is_guard: np.ndarray
    is_exit: np.ndarray
    #: Fractional per-second capacity jitter per relay.
    jitter: np.ndarray
    _index: dict[str, int] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.fingerprints)

    def _indices(self) -> dict[str, int]:
        if self._index is None:
            self._index = {
                fp: i for i, fp in enumerate(self.fingerprints)
            }
        return self._index

    def index_of(self, fingerprint: str) -> int:
        return self._indices()[fingerprint]

    def has(self, fingerprint: str) -> bool:
        return fingerprint in self._indices()

    def true_capacity_array(self) -> np.ndarray:
        """Per-relay ground-truth capacity, bit-identical to the views.

        Replicates :attr:`Relay.true_capacity`'s chained comparisons
        (CPU bound, then link if strictly smaller, then rate limit if
        set and strictly smaller) elementwise.
        """
        cap = np.where(
            self.link_capacity < self.capacity, self.link_capacity,
            self.capacity,
        )
        limit = self.rate_limit
        limited = ~np.isnan(limit) & (limit < cap)
        return np.where(limited, limit, cap)

    def set_rate_limit(self, index: int, rate_bits: float | None) -> None:
        """Column-side twin of :meth:`Relay.set_rate_limit`."""
        if rate_bits is None:
            self.rate_limit[index] = np.nan
            self.has_bucket[index] = False
            self.bucket_rate[index] = 0.0
            self.bucket_burst[index] = 0.0
            self.bucket_tokens[index] = 0.0
            return
        # Validates rate/burst and computes the start-full fill exactly
        # like the object path's fresh bucket.
        bucket = TokenBucket(rate=rate_bits / 8.0)
        self.rate_limit[index] = rate_bits
        self.bucket_rate[index] = bucket.rate
        self.bucket_burst[index] = bucket.burst
        self.bucket_tokens[index] = bucket.tokens
        self.has_bucket[index] = True

    def bucket_state(self, index: int) -> tuple[float, float, float]:
        """(tokens, rate, burst) snapshot straight from the columns."""
        return (
            float(self.bucket_tokens[index]),
            float(self.bucket_rate[index]),
            float(self.bucket_burst[index]),
        )


class ColumnTokenBucket(TokenBucket):
    """A :class:`TokenBucket` whose fill level lives in the columns.

    ``tokens`` is a property proxying ``columns.bucket_tokens[index]``,
    so every inherited method (``take_second``, ``consume``, ``state``)
    reads and writes the array; the columns stay authoritative for
    bucket state while views share the scalar walk logic bit for bit.
    """

    def __init__(self, columns: NetworkColumns, index: int) -> None:
        self._columns = columns
        self._col_index = index
        self.rate = float(columns.bucket_rate[index])
        self.burst = float(columns.bucket_burst[index])

    @property
    def tokens(self) -> float:
        return float(self._columns.bucket_tokens[self._col_index])

    @tokens.setter
    def tokens(self, value: float) -> None:
        self._columns.bucket_tokens[self._col_index] = value


class ColumnRelay(Relay):
    """A relay view over one column index.

    Identical to a plain :class:`Relay` except that rate-limit changes
    write through to the columns (keeping the vectorized aggregates
    exact) and the token bucket proxies the column arrays.
    """

    def set_rate_limit(self, rate_bits: float | None) -> None:
        columns: NetworkColumns = self._columns
        index: int = self._col_index
        columns.set_rate_limit(index, rate_bits)
        self.rate_limit = rate_bits
        self._bucket = (
            ColumnTokenBucket(columns, index) if rate_bits is not None else None
        )


def _make_view(columns: NetworkColumns, index: int) -> ColumnRelay:
    """Materialize the ``index``-th relay exactly as the object path does."""
    from repro.netsim.hosts import Host
    from repro.tornet.cpu import CpuModel

    fingerprint = columns.fingerprints[index]
    capacity = float(columns.capacity[index])
    limit = float(columns.rate_limit[index])
    relay = ColumnRelay(
        fingerprint=fingerprint,
        nickname=f"{columns.prefix}{index}",
        host=Host(
            name=f"host-{fingerprint}",
            link_capacity=float(columns.link_capacity[index]),
            cpu_cores=4,
        ),
        cpu=CpuModel(max_forward_bits=capacity),
        rate_limit=None if math.isnan(limit) else limit,
        flags=_FLAGS[
            (bool(columns.is_guard[index]), bool(columns.is_exit[index]))
        ],
        jitter=float(columns.jitter[index]),
        seed=columns.seed_base + index,
    )
    relay._columns = columns
    relay._col_index = index
    if columns.has_bucket[index]:
        relay._bucket = ColumnTokenBucket(columns, index)
    return relay


class RelayViews(MutableMapping):
    """``dict[str, Relay]``-compatible lazy view over the columns.

    Views are cached on first access so repeated lookups return the
    same object (matching dict semantics -- behaviour mutations and
    admission state stick).  ``add``/``__setitem__`` store overrides in
    a side dict; replaced fingerprints keep their column position in
    iteration order, new ones append, exactly like a dict.
    """

    def __init__(self, columns: NetworkColumns) -> None:
        self._columns = columns
        self._cache: dict[int, ColumnRelay] = {}
        self._overrides: dict[str, Relay] = {}
        self._deleted: set[str] = set()

    @property
    def is_pure(self) -> bool:
        """True while no relay was added, replaced, or removed."""
        return not self._overrides and not self._deleted

    def view(self, index: int) -> ColumnRelay:
        relay = self._cache.get(index)
        if relay is None:
            relay = _make_view(self._columns, index)
            self._cache[index] = relay
        return relay

    def __getitem__(self, fingerprint: str) -> Relay:
        override = self._overrides.get(fingerprint)
        if override is not None:
            return override
        if fingerprint in self._deleted:
            raise KeyError(fingerprint)
        return self.view(self._columns.index_of(fingerprint))

    def __setitem__(self, fingerprint: str, relay: Relay) -> None:
        # A deleted column fingerprint stays marked deleted: like a dict,
        # deleting and re-adding a key moves it to the end of iteration
        # (the override tail), while replacing a live key keeps its slot.
        self._overrides[fingerprint] = relay

    def __delitem__(self, fingerprint: str) -> None:
        in_columns = self._columns.has(fingerprint)
        if fingerprint in self._overrides:
            del self._overrides[fingerprint]
            if in_columns:
                self._deleted.add(fingerprint)
        elif in_columns and fingerprint not in self._deleted:
            self._deleted.add(fingerprint)
        else:
            raise KeyError(fingerprint)

    def __contains__(self, fingerprint: str) -> bool:
        if fingerprint in self._overrides:
            return True
        if fingerprint in self._deleted:
            return False
        return self._columns.has(fingerprint)

    def __iter__(self) -> Iterator[str]:
        columns, overrides = self._columns, self._overrides
        deleted = self._deleted
        for fp in columns.fingerprints:
            if fp not in deleted:
                yield fp
        for fp in overrides:
            if not columns.has(fp) or fp in deleted:
                yield fp

    def __len__(self) -> int:
        n = len(self._columns) - len(self._deleted)
        for fp in self._overrides:
            if not self._columns.has(fp) or fp in self._deleted:
                n += 1
        return n


class ColumnarTorNetwork(TorNetwork):
    """A :class:`TorNetwork` whose relay state lives in column arrays.

    Drop-in compatible: ``network.relays`` quacks like the plain dict,
    ``network[fp]`` returns a real (cached) :class:`Relay`, and the
    aggregate methods produce bit-identical values to the object path --
    via vectorized fast paths while the network is untouched, via the
    inherited object walks once relays were added or replaced.
    """

    def __init__(self, columns: NetworkColumns) -> None:
        self.columns = columns
        self.relays = RelayViews(columns)

    def _pure_capacities(self) -> np.ndarray | None:
        if not self.relays.is_pure:
            return None
        return self.columns.true_capacity_array()

    def capacities(self) -> dict[str, float]:
        caps = self._pure_capacities()
        if caps is None:
            return super().capacities()
        return dict(zip(self.columns.fingerprints, caps.tolist()))

    def total_capacity(self) -> float:
        caps = self._pure_capacities()
        if caps is None or len(caps) == 0:
            return super().total_capacity()
        # sum() over the list, not np.sum: numpy's pairwise summation is
        # not bit-identical to the object path's left-to-right fold.
        return sum(caps.tolist())

    def max_capacity(self) -> float:
        caps = self._pure_capacities()
        if caps is None or len(caps) == 0:
            return super().max_capacity()
        return float(caps.max())

    def percentile_capacity(self, pct: float) -> float:
        caps = self._pure_capacities()
        if caps is None or len(caps) == 0:
            return super().percentile_capacity(pct)
        values = np.sort(caps)
        if len(values) == 1:
            return float(values[0])
        rank = (pct / 100.0) * (len(values) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(values) - 1)
        frac = rank - low
        return float(values[low] * (1 - frac) + values[high] * frac)


# ----------------------------------------------------------------------
# Vectorized synthesis
# ----------------------------------------------------------------------


def synthesize_columns(
    n_relays: int = JULY_2019_RELAY_COUNT,
    seed: int = 0,
    median: float = _LOGNORMAL_MEDIAN,
    sigma: float = _LOGNORMAL_SIGMA,
    max_capacity: float = JULY_2019_MAX_CAPACITY,
    prefix: str = "relay",
) -> NetworkColumns:
    """Column-wise twin of the scalar ``synthesize_network`` loop.

    Consumes the same forked RNG stream in the same order, so
    capacities and flags are bit-identical to the object path.  The
    scalar loop interleaves one ``gauss`` (two uniforms on even relays,
    the cached pair value on odd ones) with two flag uniforms per
    relay; the uniform indices below encode exactly that interleaving.
    """
    rng = fork(seed, f"network-{prefix}-{n_relays}")
    rs = transplant_state(rng.getstate())
    n = n_relays
    total = 3 * n + (n & 1)
    uniforms = rs.random_sample(total) if total else np.empty(0)
    u = uniforms.tolist()

    mu = math.log(median)
    exp_, log_, sqrt_ = math.exp, math.log, math.sqrt
    cos_, sin_ = math.cos, math.sin
    raw = [0.0] * n
    # Each pair of relays shares one Box-Muller uniform pair: the even
    # relay takes the cosine branch, the odd one the cached sine branch
    # (CPython's gauss_next).  Scalar math keeps libm bit-parity.
    for i in range(0, n, 2):
        base = 3 * i
        x2pi = u[base] * _TWOPI
        g2rad = sqrt_(-2.0 * log_(1.0 - u[base + 1]))
        raw[i] = exp_(mu + (cos_(x2pi) * g2rad) * sigma)
        j = i + 1
        if j < n:
            raw[j] = exp_(mu + (sin_(x2pi) * g2rad) * sigma)
    capacity = np.maximum(
        _MIN_CAPACITY, np.minimum(max_capacity, np.array(raw, dtype=np.float64))
    )

    # Flag uniforms: relay i reads indices 3i+2,3i+3 (even) or
    # 3i+1,3i+2 (odd) of the shared stream.
    idx = np.arange(n)
    guard_at = np.where(idx % 2 == 0, 3 * idx + 2, 3 * idx + 1)
    size_factor = np.minimum(1.0, capacity / mbit(100))
    is_guard = uniforms[guard_at] < 0.05 + 0.35 * size_factor
    is_exit = uniforms[guard_at + 1] < 0.05 + 0.25 * size_factor

    zeros = np.zeros(n, dtype=np.float64)
    return NetworkColumns(
        prefix=prefix,
        seed_base=seed,
        fingerprints=[f"{prefix}{i:05d}" for i in range(n)],
        capacity=capacity,
        link_capacity=capacity * 2.0,
        rate_limit=np.full(n, np.nan),
        bucket_tokens=zeros.copy(),
        bucket_rate=zeros.copy(),
        bucket_burst=zeros.copy(),
        has_bucket=np.zeros(n, dtype=bool),
        is_guard=is_guard,
        is_exit=is_exit,
        jitter=np.full(n, 0.02),
    )


# ----------------------------------------------------------------------
# Relay jitter rows
# ----------------------------------------------------------------------


def noise_row(relay: Relay, n: int) -> np.ndarray:
    """``relay.draw_noise_series(n)`` as a float64 array.

    Advances the relay's jitter stream by ``n`` draws, exactly like the
    call it wraps. :func:`repro.kernel.compile.compile_measurement` draws
    every compiled measurement's jitter through here, and the benchmark's
    layer table (``bench/layers.py``) imports it from this module as its
    ``tornet.predraw`` row.
    """
    return np.array(relay.draw_noise_series(n), dtype=np.float64)
