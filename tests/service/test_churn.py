"""Churn feed determinism and application semantics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.churn import (
    ChurnConfig,
    ChurnEvent,
    churn_events_for_period,
)
from repro.service.state import NetworkTable, RelayRow
from repro.units import mbit


def _table(n: int = 10) -> NetworkTable:
    return NetworkTable(
        {
            f"relay{i:03d}": RelayRow(
                fingerprint=f"relay{i:03d}",
                capacity=mbit(50 + 10 * i),
                seed=1000 + i,
            )
            for i in range(n)
        }
    )


def test_events_are_deterministic_and_membership_order_free():
    config = ChurnConfig(seed=9, join_rate=3.0, leave_fraction=0.2,
                         capacity_change_fraction=0.3)
    members = [f"relay{i:03d}" for i in range(20)]
    a = churn_events_for_period(config, 4, members)
    b = churn_events_for_period(config, 4, list(reversed(members)))
    assert a == b
    assert a  # the rates above produce events at this size
    # A different period re-derives a different stream.
    assert a != churn_events_for_period(config, 5, members)


def test_event_order_is_leaves_then_joins_then_capacity():
    config = ChurnConfig(seed=2, join_rate=4.0, leave_fraction=0.3,
                         capacity_change_fraction=0.5)
    events = churn_events_for_period(config, 1, [f"r{i}" for i in range(30)])
    kinds = [e.kind for e in events]
    boundary = [k for k in ("leave", "join", "capacity") if k in kinds]
    collapsed = [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k]
    assert collapsed == boundary


def test_events_round_trip_through_dicts():
    config = ChurnConfig(seed=5, join_rate=3.0, leave_fraction=0.2,
                         capacity_change_fraction=0.4)
    events = churn_events_for_period(config, 2, [f"r{i}" for i in range(15)])
    assert [ChurnEvent.from_dict(e.to_dict()) for e in events] == events
    assert ChurnConfig.from_dict(config.to_dict()) == config


def test_table_apply_churn_joins_leaves_and_drift():
    table = _table(10)
    before = dict(table.rows)
    events = [
        ChurnEvent(kind="leave", fingerprint="relay003"),
        ChurnEvent(kind="join", fingerprint="fresh", capacity=mbit(80),
                   seed=77),
        ChurnEvent(kind="capacity", fingerprint="relay005", capacity=2.0),
        ChurnEvent(kind="capacity", fingerprint="gone", capacity=2.0),
        ChurnEvent(kind="leave", fingerprint="also-gone"),
    ]
    counts = table.apply_churn(events)
    assert counts == {"joins": 1, "leaves": 1, "capacity_changes": 1}
    assert "relay003" not in table
    assert table.rows["fresh"].capacity == mbit(80)
    assert table.rows["fresh"].seed == 77
    assert table.rows["relay005"].capacity == 2.0 * before["relay005"].capacity


def test_join_collision_is_a_configuration_error():
    table = _table(3)
    with pytest.raises(ConfigurationError):
        table.apply_churn(
            [ChurnEvent(kind="join", fingerprint="relay000",
                        capacity=mbit(10), seed=1)]
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("join_rate", -1.0),
    ("leave_fraction", 1.0),
    ("join_prefix", ""),
    # Each of these used to construct, then silently reshape the
    # deployment: a NaN join rate drew no joins and an infinite one 738
    # into a 200-relay network; True ran as 1; a NaN drift std set every
    # factor to the 0.1 floor; a NaN median or sigma put every joining
    # relay at the max clip and a NaN or negative max at the min clip; a
    # negative median raised a math domain error mid-period.
    ("join_rate", NAN),
    ("join_rate", INF),
    ("join_rate", True),
    ("capacity_change_std", NAN),
    ("join_median", NAN),
    ("join_sigma", NAN),
    ("join_max_capacity", NAN),
    ("join_max_capacity", -5),
    ("join_median", -1),
    ("seed", 1.5),
    ("seed", "x"),
    ("join_prefix", 5),
])
def test_churn_config_validation(field, value):
    with pytest.raises(ConfigurationError, match=field):
        ChurnConfig(**{field: value})


def test_churn_config_accepts_boundary_values():
    config = ChurnConfig(join_rate=0, capacity_change_std=0, join_sigma=0)
    assert ChurnConfig.from_dict(config.to_dict()) == config
    assert churn_events_for_period(config, 0, []) == []
