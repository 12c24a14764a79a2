"""``ShadowConfig`` rejects malformed values when it is built.

Before, each of these ran or failed deep inside the simulation: a NaN
load multiplier or utilisation target raised ``cannot convert float NaN
to integer`` from the run, an infinite one ``OverflowError``, a
negative target ran with no background traffic, a NaN access rate
timed every benchmark transfer out, a negative ``sim_seconds`` ran an
empty horizon, ``n_relays=0`` failed sampling an empty set without
naming the field, and ``n_relays`` above the sampled consensus's 6,419
relays ran a padding loop for seconds, then raised a bare
``IndexError``.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.shadow.config import ShadowConfig, ShadowNetwork, build_network
from repro.shadow.experiment import compare_systems, torflow_weights_for

#: A 20-relay configuration, as small as the bench's warm-up run.
_SMALL = dict(
    n_relays=20, n_markov_clients=8, n_benchmark_clients=2,
    sim_seconds=10, warmup_seconds=5,
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("load_multiplier", math.nan),
        ("utilization_target", math.nan),
        ("load_multiplier", math.inf),
        ("utilization_target", -0.5),
        ("client_access_bits", math.nan),
        ("sim_seconds", -5),
        ("n_relays", 0),
        ("n_relays", True),
        # More relays than the 6,419-relay consensus it samples.
        ("n_relays", 6420),
        ("n_relays", 7000),
        ("n_markov_clients", 8.0),
        ("seed", 1.5),
        ("circuit_lifetime_seconds", 0),
        ("benchmark_pause_seconds", -1),
    ],
)
def test_malformed_value_is_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ShadowConfig(**{**_SMALL, field: value})


def test_empty_benchmark_sizes_are_rejected():
    with pytest.raises(ConfigurationError, match="benchmark_sizes"):
        ShadowConfig(**_SMALL, benchmark_sizes=(), benchmark_timeouts=())


def test_in_use_configs_are_accepted():
    """§7's defaults and every configuration the bench, the figure
    benchmarks, the examples and the tests build, including the
    per-load and warm-up copies ``compare_systems`` derives."""
    configs = [
        ShadowConfig(),
        ShadowConfig(**_SMALL, seed=999),
        ShadowConfig(n_relays=82, n_markov_clients=99, n_benchmark_clients=10,
                     sim_seconds=60, warmup_seconds=10, seed=0),
        ShadowConfig(n_relays=160, n_markov_clients=200,
                     n_benchmark_clients=24, sim_seconds=480,
                     warmup_seconds=120, seed=11),
        ShadowConfig(n_relays=50, sim_seconds=10, warmup_seconds=0),
        ShadowConfig(n_relays=24, n_markov_clients=10, n_benchmark_clients=4,
                     sim_seconds=50, warmup_seconds=12, seed=1,
                     load_multiplier=1.3, circuit_lifetime_seconds=25),
    ]
    for config in configs:
        for load in (1, 1.15, 1.30, 0.4):
            ShadowConfig(**{**config.__dict__, "load_multiplier": load})
    result = compare_systems(ShadowConfig(**_SMALL), loads=(1.0,), seed=3)
    assert result.runs
    network = build_network(ShadowConfig(**_SMALL))
    assert isinstance(network, ShadowNetwork)
    assert torflow_weights_for(network, seed=3, warmup_sim_seconds=30)


@pytest.mark.parametrize(
    "param, value",
    [
        ("warmup_sim_seconds", 0),
        ("warmup_sim_seconds", -3),
        ("warmup_sim_seconds", True),
        ("warmup_sim_seconds", 2.5),
        ("feedback_rounds", -1),
        ("feedback_rounds", 1.5),
        ("feedback_rounds", True),
    ],
)
def test_torflow_weights_for_rejects_malformed_arguments(param, value):
    """Each of these used to fail naming the derived warm-up config's
    ``sim_seconds``, raise a bare ``TypeError``, or run: a negative
    ``feedback_rounds`` ran no feedback round and ``True`` ran one."""
    network = build_network(ShadowConfig(**_SMALL))
    with pytest.raises(ConfigurationError, match=f"^{param} must be"):
        torflow_weights_for(network, seed=3, **{param: value})
