"""Oracle suite for the columnar network layer.

The contract of :mod:`repro.tornet.columnar` is *bit-identity* with the
historical object path: same fingerprints, same capacities, same flags,
same RNG streams, same aggregates -- exact ``==``, no tolerances.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tornet.columnar import (
    ColumnarTorNetwork,
    ColumnTokenBucket,
    noise_row,
    synthesize_columns,
)
from repro.tornet.network import (
    TorNetwork,
    sample_scaled_network,
    synthesize_network,
)
from repro.tornet.relay import Relay
from repro.units import mbit


def _object_network(n, seed, **kwargs):
    return synthesize_network(n_relays=n, seed=seed, columnar=False, **kwargs)


def _columnar_network(n, seed, **kwargs):
    net = synthesize_network(n_relays=n, seed=seed, columnar=True, **kwargs)
    assert isinstance(net, ColumnarTorNetwork)
    return net


@pytest.mark.parametrize("n", [1, 2, 6, 150])
@pytest.mark.parametrize("seed", [0, 7, 424242])
def test_columnar_synthesis_bit_identical_to_object_path(n, seed):
    obj = _object_network(n, seed)
    col = _columnar_network(n, seed)

    assert list(obj.relays) == list(col.relays)
    for fp in obj.relays:
        a, b = obj[fp], col[fp]
        assert a.fingerprint == b.fingerprint
        assert a.nickname == b.nickname
        assert a.cpu.max_forward_bits == b.cpu.max_forward_bits
        assert a.host.link_capacity == b.host.link_capacity
        assert a.flags == b.flags
        assert a.jitter == b.jitter
        assert a.seed == b.seed
        assert a.true_capacity == b.true_capacity


def test_same_seed_is_deterministic_across_paths_and_calls():
    """Satellite: same seed -> identical relays, every path, every call."""
    nets = [
        _object_network(40, 99),
        _object_network(40, 99),
        _columnar_network(40, 99),
        _columnar_network(40, 99),
    ]
    base = nets[0]
    for net in nets[1:]:
        assert list(net.relays) == list(base.relays)
        for fp in base.relays:
            assert net[fp].true_capacity == base[fp].true_capacity
            assert net[fp].flags == base[fp].flags
    assert _columnar_network(40, 100).capacities() != base.capacities()


def test_aggregates_bit_identical():
    for n, seed in [(1, 3), (5, 3), (151, 12)]:
        obj, col = _object_network(n, seed), _columnar_network(n, seed)
        assert col.capacities() == obj.capacities()
        assert col.total_capacity() == obj.total_capacity()
        assert col.max_capacity() == obj.max_capacity()
        for pct in (0, 1, 25, 50, 73.5, 99, 100):
            assert col.percentile_capacity(pct) == obj.percentile_capacity(pct)


def test_noise_stream_bit_identical():
    obj, col = _object_network(8, 21), _columnar_network(8, 21)
    for fp in obj.relays:
        assert obj[fp].draw_noise_series(10) == col[fp].draw_noise_series(10)


def test_view_identity_and_cache():
    col = _columnar_network(5, 1)
    fp = next(iter(col.relays))
    assert col[fp] is col[fp]
    assert isinstance(col[fp], Relay)
    assert fp in col.relays and "nope" not in col.relays
    assert len(col) == 5


def test_view_rate_limit_writes_through_to_columns():
    col = _columnar_network(4, 5)
    fp = list(col.relays)[2]
    relay = col[fp]
    index = col.columns.index_of(fp)

    relay.set_rate_limit(mbit(10))
    assert isinstance(relay.bucket, ColumnTokenBucket)
    assert relay.rate_limit == mbit(10)
    assert col.columns.has_bucket[index]
    # Bucket starts full and its tokens live in the column array.
    assert relay.bucket.tokens == col.columns.bucket_tokens[index]
    before = relay.bucket.tokens
    relay.bucket.consume(1000.0)
    assert col.columns.bucket_tokens[index] == before - 1000.0

    relay.set_rate_limit(None)
    assert relay.bucket is None
    assert not col.columns.has_bucket[index]

    # Bit-identity with an object relay doing the same dance.
    obj = _object_network(4, 5)[fp]
    obj.set_rate_limit(mbit(10))
    obj.bucket.consume(1000.0)
    relay.set_rate_limit(mbit(10))
    relay.bucket.consume(1000.0)
    assert relay.bucket.tokens == obj.bucket.tokens
    assert relay.true_capacity == obj.true_capacity


def test_mapping_add_replace_delete_semantics():
    col = _columnar_network(6, 8)
    obj = _object_network(6, 8)
    fps = list(col.relays)

    # Delete.
    del col.relays[fps[1]]
    del obj.relays[fps[1]]
    assert list(col.relays) == list(obj.relays)
    assert fps[1] not in col.relays
    with pytest.raises(KeyError):
        col[fps[1]]

    # Replace an existing view with a foreign relay.
    foreign = _object_network(1, 777, prefix="other")
    other = foreign[next(iter(foreign.relays))]
    col.relays[fps[2]] = other
    assert col[fps[2]] is other
    assert not col.relays.is_pure

    # Add a brand-new fingerprint.
    col.relays["brand-new"] = other
    assert "brand-new" in col.relays
    assert list(col.relays)[-1] == "brand-new"

    # Aggregates fall back to the object path and stay consistent with
    # a plain dict network holding the same relays.
    plain = TorNetwork(dict(col.relays.items()))
    assert col.capacities() == plain.capacities()
    assert col.total_capacity() == plain.total_capacity()
    assert col.max_capacity() == plain.max_capacity()
    assert col.percentile_capacity(50) == plain.percentile_capacity(50)

    # Re-adding a deleted fingerprint resurrects it at the end.
    col.relays[fps[1]] = other
    assert list(col.relays)[-1] == fps[1]


def test_sample_scaled_network_bit_identical():
    obj = _object_network(200, 31)
    col = _columnar_network(200, 31)
    for fraction, seed in [(0.05, 0), (0.25, 9)]:
        a = sample_scaled_network(obj, fraction=fraction, seed=seed)
        b = sample_scaled_network(col, fraction=fraction, seed=seed)
        assert list(a.relays) == list(b.relays)
        assert a.capacities() == b.capacities()


def test_empty_network_aggregates_raise():
    """Satellite: empty-network aggregates fail loudly, both paths."""
    for net in (TorNetwork(), ColumnarTorNetwork(synthesize_columns(0, 1))):
        with pytest.raises(ConfigurationError, match="empty network"):
            net.total_capacity()
        with pytest.raises(ConfigurationError, match="empty network"):
            net.max_capacity()
        with pytest.raises(ConfigurationError, match="empty network"):
            net.percentile_capacity(50)


def test_percentile_boundaries_pinned():
    """Satellite: pct=0 is the minimum, pct=100 the maximum."""
    for net in (_object_network(37, 2), _columnar_network(37, 2)):
        caps = sorted(net.capacities().values())
        assert net.percentile_capacity(0) == caps[0]
        assert net.percentile_capacity(100) == caps[-1]


def test_noise_row_matches_draw_noise_series():
    """``noise_row`` on a columnar view is an object relay's
    ``draw_noise_series`` as a float64 array, and both relays' streams
    continue identically afterwards."""
    ref = _object_network(3, 55)
    col = _columnar_network(3, 55)
    fp = list(ref.relays)[1]

    row = noise_row(col[fp], 7)
    assert row.dtype == np.float64
    assert row.tolist() == ref[fp].draw_noise_series(7)

    # An odd draw count leaves a cached gauss value; it must carry over.
    assert col[fp].draw_noise_series(5) == ref[fp].draw_noise_series(5)
    assert noise_row(col[fp], 4).tolist() == ref[fp].draw_noise_series(4)
    assert col[fp]._rng.getstate() == ref[fp]._rng.getstate()


def test_materialization_scales():
    """10^5 relays materialize in well under the 5 s criterion."""
    import time

    start = time.perf_counter()
    net = _columnar_network(100_000, 1)
    elapsed = time.perf_counter() - start
    assert len(net) == 100_000
    assert elapsed < 5.0
    # Aggregates stay array-speed on the pure columnar network.
    assert net.total_capacity() > 0
    assert net.percentile_capacity(50) <= net.max_capacity()
    assert math.isfinite(net.max_capacity())
