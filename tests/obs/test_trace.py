"""Tracer unit tests: span tree shape, parenting, the null fast path."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    get_tracer,
    use_tracer,
)


def test_default_ambient_tracer_is_the_null_singleton():
    assert get_tracer() is NULL_TRACER
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.spans == ()


def test_null_tracer_returns_the_shared_span_singleton():
    # Zero allocation on the disabled path: every span() call hands back
    # the same object, whatever the arguments.
    s1 = NULL_TRACER.span("round", anything=1)
    s2 = NULL_TRACER.span("other")
    assert s1 is NULL_SPAN
    assert s2 is NULL_SPAN
    assert s1.recording is False
    with s1 as entered:
        assert entered is NULL_SPAN
        assert s1.set(key="value") is NULL_SPAN
    NULL_TRACER.finish()  # no-op, must not raise


def test_spans_nest_and_close_children_first():
    tracer = Tracer()
    with tracer.span("campaign") as campaign:
        with tracer.span("round") as round_span:
            with tracer.span("round.compile"):
                pass
    names = [s.name for s in tracer.spans]
    # Close order: innermost first.
    assert names == ["round.compile", "round", "campaign"]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["campaign"].parent_id is None
    assert by_name["round"].parent_id == campaign.span_id
    assert by_name["round.compile"].parent_id == round_span.span_id


def test_sibling_spans_share_a_parent():
    tracer = Tracer()
    with tracer.span("round") as parent:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    children = [s for s in tracer.spans if s.name in ("a", "b")]
    assert [s.parent_id for s in children] == [parent.span_id] * 2


def test_span_on_a_thread_with_no_open_span_is_a_root():
    # Parent stacks are per thread: an executor thread (the service
    # daemon runs each period's campaign in one) starts with none open.
    tracer = Tracer()
    with tracer.span("daemon"):

        def work():
            with tracer.span("campaign"):
                with tracer.span("round"):
                    pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["campaign"].parent_id is None
    assert by_name["round"].parent_id == by_name["campaign"].span_id
    assert by_name["daemon"].parent_id is None


def test_span_ids_allocate_parent_first():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    for span in tracer.spans:
        if span.parent_id is not None:
            assert span.parent_id < span.span_id


def test_span_records_times_and_attrs():
    tracer = Tracer()
    with tracer.span("work", backend="vector") as span:
        span.set(n_jobs=3)
    assert span.wall_seconds >= 0.0
    assert span.cpu_seconds >= 0.0
    record = span.to_dict()
    assert record["type"] == "span"
    assert record["name"] == "work"
    assert record["attrs"] == {"backend": "vector", "n_jobs": 3}


def test_span_captures_exception_type():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (span,) = tracer.spans
    assert span.attrs["error"] == "ValueError"


def test_use_tracer_restores_the_previous_tracer():
    tracer = Tracer()
    assert get_tracer() is NULL_TRACER
    with use_tracer(tracer) as installed:
        assert installed is tracer
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_use_tracer_restores_on_error():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with use_tracer(tracer):
            raise RuntimeError
    assert get_tracer() is NULL_TRACER


def test_wall_by_name_totals_per_span_name():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("round"):
            pass
    totals = tracer.wall_by_name()
    assert set(totals) == {"round"}
    assert totals["round"] >= 0.0
