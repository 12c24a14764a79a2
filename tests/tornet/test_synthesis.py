"""Synthesized networks: goldens, determinism and aggregates.

Every generated network is a :class:`~repro.tornet.network.TorNetwork`
of plain :meth:`Relay.with_capacity` relays. The golden digests below
pin everything a relay carries out of synthesis -- fingerprint,
nickname, capacities, flags, seed, jitter and its first jitter draws --
for :func:`synthesize_network`, :func:`sample_scaled_network` and
:func:`repro.shadow.config.build_network`. Capacities are hashed through
``float.hex()``, so a relay whose capacity comes out as an ``int`` (a
clipped draw returning the cap itself) fails the test even though it
compares ``==`` to the float.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.shadow.config import ShadowConfig, build_network
from repro.tornet.columnar import noise_row
from repro.tornet.network import (
    TorNetwork,
    sample_scaled_network,
    synthesize_network,
)
from repro.units import mbit


def _digest(network: TorNetwork) -> str:
    """SHA-256 over every relay's synthesized state, in network order.

    Draws each relay's first three jitter factors, so pass a fresh
    network.
    """
    h = hashlib.sha256()
    for fp, relay in network.relays.items():
        row = [
            fp, relay.fingerprint, relay.nickname,
            float.hex(relay.cpu.max_forward_bits),
            float.hex(relay.host.link_capacity),
            float.hex(relay.true_capacity),
            sorted(relay.flags), relay.seed, float.hex(relay.jitter),
            [float.hex(x) for x in relay.draw_noise_series(3)],
        ]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("kwargs,expected", [
    (dict(n_relays=1, seed=0),
     "575617bbf202a6cd2f180be84b697acf5dd170451d2e1b87ae9074253a6c5c27"),
    (dict(n_relays=2, seed=7),
     "76ab774c2add580cd997b8b24c46faebfad9f767ee45840711555762e199d10d"),
    (dict(n_relays=151, seed=424242),
     "03f289e3de356f6f44beaabd88d47d683e276ff673825e314122c560d75bc363"),
    (dict(n_relays=2001, seed=3),
     "d8cf1e4df54f7e2e8222ee973d0ef66ee8df621a603e1c8f66910192332c398e"),
    # A low cap clips about a third of the draws to the cap itself.
    (dict(n_relays=300, seed=5, median=mbit(10), sigma=0.5,
          max_capacity=mbit(12), prefix="alt"),
     "8e43f63bd95bd86391ba97f8b5a6f067b14b958c09ae0354f850783fda7ddc7e"),
])
def test_synthesize_network_golden(kwargs, expected):
    assert _digest(synthesize_network(**kwargs)) == expected


@pytest.mark.parametrize("fraction,seed,expected", [
    (0.0001, 2,
     "27b404af809441a5d099c294348e366bb2d562ec14d642ac7407b24507edec2c"),
    (0.05, 0,
     "c7aafaa1330aac3667b360e4ae839ae10de8524d5c725c9102ddcd2f4d5e1fcd"),
    (0.25, 9,
     "46a49ada7813e40e5fc3d49c6c644c8393c8a060c921a83e22ff632c81f8da72"),
    (1.0, 1,
     "ace055959adbe14a7decf152e03e476c014c60915611b23c885b4e54edd9a206"),
])
def test_sample_scaled_network_golden(fraction, seed, expected):
    full = synthesize_network(n_relays=2001, seed=3)
    scaled = sample_scaled_network(full, fraction=fraction, seed=seed)
    assert _digest(scaled) == expected


@pytest.mark.parametrize("n_relays,seed,expected", [
    (1, 0,
     "419f5feac55d00fd6b661ac0a2b882e8eae93e44ca46202f5da1197dcb093a1c"),
    (82, 0,
     "a10689479736ebac86f52962c41306e05e9d56d1db3c57f11147a28374b9241c"),
    (328, 1,
     "663eaa13ffe789e257ef5dc0651379b7ff48a74518a1f3e388134e30f75dac08"),
    (6419, 2,
     "277dbaf3725f2af823472d3eb8c5e5a0228f48f7b2cbe604e5f58a879edb18a8"),
])
def test_build_network_golden(n_relays, seed, expected):
    network = build_network(ShadowConfig(n_relays=n_relays, seed=seed))
    assert len(network.relays) == n_relays
    assert _digest(network.relays) == expected


def test_same_seed_is_deterministic_across_calls():
    a = synthesize_network(n_relays=40, seed=99)
    b = synthesize_network(n_relays=40, seed=99)
    assert list(a.relays) == list(b.relays)
    for fp in a.relays:
        assert a[fp] is not b[fp]
        assert a[fp].true_capacity == b[fp].true_capacity
        assert a[fp].flags == b[fp].flags
    assert synthesize_network(n_relays=40, seed=100).capacities() \
        != a.capacities()


def test_empty_network_aggregates_raise():
    for net in (TorNetwork(), synthesize_network(n_relays=0, seed=1)):
        with pytest.raises(ConfigurationError, match="empty network"):
            net.total_capacity()
        with pytest.raises(ConfigurationError, match="empty network"):
            net.max_capacity()
        with pytest.raises(ConfigurationError, match="empty network"):
            net.percentile_capacity(50)


def test_percentile_boundaries_pinned():
    """pct=0 is the minimum, pct=100 the maximum."""
    net = synthesize_network(n_relays=37, seed=2)
    caps = sorted(net.capacities().values())
    assert net.percentile_capacity(0) == caps[0]
    assert net.percentile_capacity(100) == caps[-1]


def test_noise_row_matches_draw_noise_series():
    """``noise_row`` is ``draw_noise_series`` as a float64 array, and
    the relay's stream continues identically afterwards."""
    ref = synthesize_network(n_relays=3, seed=55)
    net = synthesize_network(n_relays=3, seed=55)
    fp = list(ref.relays)[1]

    row = noise_row(net[fp], 7)
    assert row.dtype == np.float64
    assert row.tolist() == ref[fp].draw_noise_series(7)

    # An odd draw count leaves a cached gauss value; it must carry over.
    assert net[fp].draw_noise_series(5) == ref[fp].draw_noise_series(5)
    assert noise_row(net[fp], 4).tolist() == ref[fp].draw_noise_series(4)
    assert net[fp]._rng.getstate() == ref[fp]._rng.getstate()


def test_materialization_scales():
    """10^5 relays build well inside 5 s."""
    import time

    start = time.perf_counter()
    net = synthesize_network(n_relays=100_000, seed=1)
    elapsed = time.perf_counter() - start
    assert len(net) == 100_000
    assert elapsed < 5.0
    assert net.total_capacity() > 0
    assert net.percentile_capacity(50) <= net.max_capacity()
