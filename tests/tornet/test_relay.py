"""Tests for the relay model: capacity, ratio enforcement, echo cells."""

import pytest

from repro.tornet.cell import Cell
from repro.tornet.cpu import CpuModel
from repro.tornet.relay import Relay, RelayBehavior
from repro.tornet.relaycrypto import establish_circuit_key
from repro.units import mbit
from tests.oracles.stateful_engine import (
    measured_second,
    process_measurement_cell,
)


def test_with_capacity_sets_true_capacity():
    relay = Relay.with_capacity("r", mbit(250))
    assert relay.true_capacity == pytest.approx(mbit(250))


def test_rate_limit_binds_true_capacity():
    relay = Relay.with_capacity("r", mbit(500))
    relay.rate_limit = mbit(100)
    assert relay.true_capacity == pytest.approx(mbit(100))


def test_forwarding_capacity_socket_overhead():
    relay = Relay.with_capacity("r", mbit(800))
    few = relay.forwarding_capacity(n_measurement_sockets=10)
    many = relay.forwarding_capacity(n_measurement_sockets=300)
    assert few > many


def test_kist_cap_binds_with_few_normal_sockets():
    """Figure 11's rising part: few sockets limit normal throughput."""
    relay = Relay.with_capacity("r", mbit(1248))
    assert relay.forwarding_capacity(n_background_sockets=2) == pytest.approx(
        2 * mbit(96)
    )


def test_measurement_scheduler_fast_with_one_socket():
    """Figure 12: the measurement scheduler needs no socket count."""
    relay = Relay.with_capacity("r", mbit(800))
    capacity = relay.forwarding_capacity(n_measurement_sockets=1)
    assert capacity > mbit(700)


def test_admission_once_per_period():
    relay = Relay.with_capacity("r", mbit(100))
    assert relay.accept_measurement("bwauth0", period_index=1)
    assert not relay.accept_measurement("bwauth0", period_index=1)
    # A different BWAuth or period is fine.
    assert relay.accept_measurement("bwauth1", period_index=1)
    assert relay.accept_measurement("bwauth0", period_index=2)


def test_measured_second_ratio_enforced():
    relay = Relay.with_capacity("r", mbit(250), seed=1)
    relay.jitter = 0.0
    report = measured_second(
        relay,
        measurement_supply_bits=mbit(1000),
        background_demand_bits=mbit(1000),
        ratio_r=0.1,
        n_measurement_sockets=160,
    )
    total = report.measurement_bytes + report.background_actual_bytes
    assert report.background_actual_bytes / total <= 0.1 + 1e-9


def test_measured_second_background_limited_by_measurement():
    """With little measurement traffic, background is slaved to it."""
    relay = Relay.with_capacity("r", mbit(250), seed=2)
    relay.jitter = 0.0
    report = measured_second(
        relay,
        measurement_supply_bits=mbit(10),
        background_demand_bits=mbit(100),
        ratio_r=0.25,
        n_measurement_sockets=160,
    )
    assert report.background_actual_bytes <= (
        report.measurement_bytes * 0.25 / 0.75 + 1
    )


def test_measured_second_zero_background():
    relay = Relay.with_capacity("r", mbit(100), seed=3)
    report = measured_second(
        relay,
        measurement_supply_bits=mbit(500),
        background_demand_bits=0.0,
        ratio_r=0.25,
        n_measurement_sockets=160,
    )
    assert report.background_actual_bytes == 0.0
    assert report.measurement_bytes > 0


def test_measured_second_invalid_ratio():
    relay = Relay.with_capacity("r", mbit(100))
    with pytest.raises(ValueError):
        measured_second(relay, 1.0, 1.0, ratio_r=1.0, n_measurement_sockets=1)


def test_rate_limit_burst_spike_then_steady():
    """Figure 7's one-second burst at measurement start."""
    relay = Relay.with_capacity("r", mbit(900), seed=4)
    relay.set_rate_limit(mbit(250))
    relay.jitter = 0.0
    first = measured_second(
        relay, mbit(2000), 0.0, ratio_r=0.25, n_measurement_sockets=160
    )
    second = measured_second(
        relay, mbit(2000), 0.0, ratio_r=0.25, n_measurement_sockets=160
    )
    assert first.measurement_bytes > 1.8 * second.measurement_bytes
    assert second.measurement_bytes * 8 == pytest.approx(mbit(250), rel=0.05)


def test_honest_echo_is_correct_decryption():
    relay = Relay.with_capacity("r", mbit(100))
    key, _ = establish_circuit_key()
    cell = Cell.measurement(1)
    echoed = process_measurement_cell(relay, cell, key, cell_index=0)
    assert echoed.payload == key.process(cell.payload, 0)


def test_idle_second_records_observed_bw():
    relay = Relay.with_capacity("r", mbit(100), seed=5)
    relay.jitter = 0.0
    for t in range(1, 15):
        relay.idle_second(mbit(40), t=t)
    assert relay.observed_bw.observed() == pytest.approx(
        mbit(40) / 8.0, rel=0.01
    )


def test_idle_second_capped_by_capacity():
    relay = Relay.with_capacity("r", mbit(100), seed=6)
    relay.jitter = 0.0
    forwarded = relay.idle_second(mbit(500), n_background_sockets=20)
    assert forwarded <= relay.forwarding_capacity(n_background_sockets=20) + 1


def test_behavior_capacity_factor_applied():
    class HalfBehavior(RelayBehavior):
        def capacity_factor(self, being_measured, relay):
            return 0.5 if being_measured else 1.0

    relay = Relay.with_capacity("r", mbit(200), behavior=HalfBehavior())
    full = relay.forwarding_capacity(n_measurement_sockets=10)
    measured = relay.forwarding_capacity(
        n_measurement_sockets=10, being_measured=True
    )
    assert measured == pytest.approx(full * 0.5)


def test_cpu_model_socket_classes():
    cpu = CpuModel(max_forward_bits=mbit(1000))
    normal_heavy = cpu.effective_capacity(n_normal_sockets=200)
    meas_heavy = cpu.effective_capacity(n_measurement_sockets=200)
    assert meas_heavy > normal_heavy  # measurement scheduler is cheaper


def test_cpu_utilization_bounds():
    cpu = CpuModel(max_forward_bits=mbit(100))
    assert cpu.utilization(mbit(50)) == pytest.approx(0.5)
    assert cpu.utilization(mbit(500)) == 1.0
