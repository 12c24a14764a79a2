"""Tests for authenticated sessions and multi-period deployments."""

import pytest

from repro import quick_team
from repro.core.allocation import allocate_capacity
from repro.core.deployment import Deployment, ESTIMATE_MAX_AGE_PERIODS
from repro.core.measurement import MeasurementOutcome
from repro.core.messages import MessageType, SigningIdentity
from repro.core.session import MeasurementSession
from repro.errors import AuthenticationError, ProtocolError
from repro.tornet.network import TorNetwork, synthesize_network
from repro.tornet.relay import Relay
from repro.units import mbit


@pytest.fixture
def session(team_auth):
    return MeasurementSession(
        bwauth=SigningIdentity(team_auth.name),
        measurer_identities={
            m.name: SigningIdentity(m.name) for m in team_auth.team
        },
        relay_identity=SigningIdentity("target"),
        period_index=3,
    )


def _outcome():
    return MeasurementOutcome(estimate=mbit(100), duration=30)


def test_session_full_lifecycle(session, team_auth):
    session.announce()
    session.relay_accept()
    assignments = allocate_capacity(team_auth.team, mbit(600))
    session.instruct(assignments, socket_share=53)
    session.record_second(0, {"measurer0": 1e6, "measurer1": 1e6}, 5e4)
    session.record_second(1, {"measurer0": 1.1e6}, 4e4)
    session.end(_outcome())
    session.verify_transcript()  # every signature and nonce checks out

    announce = session.transcript.of_type(MessageType.MEASUREMENT_ANNOUNCE)[0]
    assert "measurer_keys" in announce.payload
    assert len(session.transcript.of_type(MessageType.MEASURER_REPORT)) == 3
    assert len(session.transcript.of_type(MessageType.RELAY_REPORT)) == 2


def test_session_cannot_instruct_before_accept(session, team_auth):
    session.announce()
    assignments = allocate_capacity(team_auth.team, mbit(300))
    with pytest.raises(ProtocolError):
        session.instruct(assignments, socket_share=53)


def test_session_refusal_blocks_measuring(session):
    session.announce()
    session.relay_accept(accept=False)
    with pytest.raises(ProtocolError):
        session.record_second(0, {}, 0.0)


def test_session_cannot_end_twice(session):
    session.announce()
    session.relay_accept()
    session.end(_outcome())
    with pytest.raises(ProtocolError):
        session.end(_outcome())
    with pytest.raises(ProtocolError):
        session.record_second(5, {}, 0.0)


def test_tampered_transcript_detected(session):
    session.announce()
    session.relay_accept()
    session.end(_outcome())
    session.transcript.messages[0].payload["period"] = 999
    with pytest.raises(AuthenticationError):
        session.verify_transcript()


def test_transcript_rejects_unknown_sender(session):
    session.announce()
    mallory = SigningIdentity("mallory")
    from repro.core.messages import ProtocolMessage

    session.transcript.append(
        ProtocolMessage(
            msg_type=MessageType.RELAY_REPORT,
            sender="mallory",
            nonce=99,
            payload={},
        ).signed_by(mallory)
    )
    with pytest.raises(AuthenticationError):
        session.verify_transcript()


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

@pytest.fixture
def small_network():
    return synthesize_network(n_relays=12, seed=44)


def test_deployment_runs_periods(small_network):
    deployment = Deployment(authority=quick_team(seed=45))
    first = deployment.run_period(small_network)
    second = deployment.run_period(small_network)
    assert first.period_index == 0
    assert second.period_index == 1
    assert len(first.estimates) == len(small_network)
    assert len(second.bwfile) == len(small_network)


def test_deployment_warm_start_cuts_measurements(small_network):
    deployment = Deployment(
        authority=quick_team(seed=46), full_simulation=False
    )
    first = deployment.run_period(small_network)
    second = deployment.run_period(small_network)
    assert second.campaign.measurements_run <= first.campaign.measurements_run


def test_deployment_tracks_new_arrivals(small_network):
    deployment = Deployment(authority=quick_team(seed=47))
    deployment.run_period(small_network)
    grown = TorNetwork(dict(small_network.relays))
    grown.add(Relay.with_capacity("newcomer", mbit(80), seed=48))
    record = deployment.run_period(grown)
    assert "newcomer" in record.estimates
    assert deployment.estimate_age("newcomer") == 0


def test_deployment_ages_out_stale_estimates(small_network):
    deployment = Deployment(
        authority=quick_team(seed=49), full_simulation=False
    )
    deployment.run_period(small_network)
    fp = next(iter(small_network.relays))
    # Simulate a month of periods without seeing this relay.
    deployment._history[fp] = (
        deployment._history[fp][0],
        -(ESTIMATE_MAX_AGE_PERIODS + 1),
    )
    assert fp not in deployment.known_estimates()


def test_deployment_bwfile_per_period(small_network):
    deployment = Deployment(
        authority=quick_team(seed=50), full_simulation=False
    )
    record = deployment.run_period(small_network)
    parsed_weights = record.bwfile.weights()
    assert parsed_weights == {
        fp: pytest.approx(est) for fp, est in record.estimates.items()
    }
