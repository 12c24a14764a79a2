"""Tests for FlashFlow parameters (paper §6.1 defaults and derived values)."""

import pytest

from repro.core.params import FlashFlowParams
from repro.errors import ConfigurationError
from repro.units import DAY, mbit


def test_paper_defaults():
    p = FlashFlowParams()
    assert p.n_sockets == 160
    assert p.multiplier == 2.25
    assert p.slot_seconds == 30
    assert p.epsilon1 == 0.20
    assert p.epsilon2 == 0.05
    assert p.ratio == 0.25
    assert p.p_check == 1e-5
    assert p.period_seconds == DAY
    assert p.new_relay_seed == mbit(51)


def test_allocation_factor_formula():
    """f = m (1 + eps2) / (1 - eps1) = 2.953 with paper defaults."""
    p = FlashFlowParams()
    assert p.allocation_factor == pytest.approx(2.25 * 1.05 / 0.80)


def test_inflation_bound_is_1_33():
    assert FlashFlowParams().inflation_bound == pytest.approx(1.0 / 0.75)


def test_slots_per_period():
    assert FlashFlowParams().slots_per_period == 2880  # 24h / 30s


def test_acceptance_threshold():
    """Accept z < sum(a_i)(1-eps1)/m (paper §4.2)."""
    p = FlashFlowParams()
    assert p.acceptance_threshold(mbit(900)) == pytest.approx(
        mbit(900) * 0.80 / 2.25
    )


def test_accuracy_interval():
    lo, hi = FlashFlowParams().accuracy_interval(mbit(100))
    assert lo == pytest.approx(mbit(80))
    assert hi == pytest.approx(mbit(105))


def test_correct_estimate_always_accepted():
    """§4.2's algebra: if z0 is the true capacity and the measurement is
    accurate (z < (1+eps2) z0), the acceptance condition holds."""
    p = FlashFlowParams()
    z0 = mbit(200)
    allocated = p.allocation_factor * z0
    z_worst_accurate = (1 + p.epsilon2) * z0
    assert z_worst_accurate <= p.acceptance_threshold(allocated) + 1e-6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_sockets": 0},
        {"multiplier": 0.5},
        {"slot_seconds": 0},
        {"epsilon1": 1.0},
        {"epsilon2": -0.1},
        {"ratio": 1.0},
        {"p_check": 2.0},
        {"period_seconds": 10, "slot_seconds": 30},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        FlashFlowParams(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [
        # Each of these used to be accepted: bool and fractional counts
        # ran the wrong socket count or failed deep in the columnar
        # round code, and NaN/inf slipped past every range check.
        ("n_sockets", True),
        ("n_sockets", 2.5),
        ("slot_seconds", 2.5),
        ("slot_seconds", float("nan")),
        ("period_seconds", float("nan")),
        ("multiplier", float("nan")),
        ("multiplier", float("inf")),
        ("epsilon1", float("nan")),
        ("epsilon2", float("nan")),
        ("new_relay_seed", float("nan")),
        ("new_relay_seed", -1.0),
        ("new_relay_seed", 0.0),
    ],
)
def test_malformed_params_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FlashFlowParams(**{field: value})


def test_params_accept_int_floats_and_boundaries():
    p = FlashFlowParams(multiplier=2, epsilon1=0, epsilon2=0, ratio=0,
                        p_check=1, new_relay_seed=1)
    assert p.allocation_factor == 2.0


def test_params_frozen():
    p = FlashFlowParams()
    with pytest.raises(AttributeError):
        p.ratio = 0.5
