"""Distributed tracing: spans, parenting, thread safety."""

import threading

import pytest

from repro.obs.trace import (
    SPAN_STATUSES,
    Span,
    SpanContext,
    Tracer,
    new_span_id,
    new_trace_id,
)


class TestSpan:
    def test_open_then_closed(self):
        tracer = Tracer(worker_id="w")
        span = tracer.start_span("lease p1", kind="lease",
                                 point_id="p1")
        assert span.end_ts is None and span.status == "open"
        done = tracer.end_span(span, "ok", attrs={"batch": 3})
        assert done.status == "ok"
        assert done.end_ts >= done.start_ts
        assert done.attrs["batch"] == 3
        # the original frozen record is untouched
        assert span.end_ts is None

    def test_dict_round_trip(self):
        tracer = Tracer(worker_id="w")
        done = tracer.end_span(
            tracer.start_span("run", kind="run", point_id="p"), "error",
            attrs={"error": "boom"},
        )
        assert Span(**done.to_dict()) == done

    def test_invalid_finish_status_rejected(self):
        tracer = Tracer()
        span = tracer.start_span("x")
        for status in ("open", "bogus"):
            with pytest.raises(ValueError):
                tracer.end_span(span, status)
        assert set(SPAN_STATUSES) == {"open", "ok", "error", "aborted"}


class TestTracerParenting:
    def test_nested_spans_parent_to_innermost_open(self):
        tracer = Tracer(worker_id="w")
        outer = tracer.start_span("session", kind="worker")
        inner = tracer.start_span("lease", kind="lease")
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert tracer.current().span_id == inner.span_id
        tracer.end_span(inner)
        assert tracer.current().span_id == outer.span_id

    def test_root_context_ties_into_existing_trace(self):
        root = SpanContext(new_trace_id(), new_span_id())
        tracer = Tracer(worker_id="w", root=root)
        span = tracer.start_span("session", kind="worker")
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id

    def test_explicit_parent_wins_over_stack(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        child = tracer.start_span("c", parent=a)
        assert child.parent_id == a.span_id != b.span_id

    def test_without_any_parent_a_fresh_trace_starts(self):
        tracer = Tracer()
        span = tracer.start_span("first")
        assert span.parent_id is None
        assert len(span.trace_id) == 32


class TestTracerPlumbing:
    def test_thread_safety_under_concurrent_spans(self):
        # the fabric's heartbeat thread closes renew spans while the
        # main loop runs points against the same tracer.
        tracer = Tracer(worker_id="w")
        session = tracer.start_span("session", kind="worker")
        errors = []

        def churn():
            try:
                for _ in range(200):
                    span = tracer.start_span("renew", kind="renew",
                                             parent=session)
                    tracer.end_span(span, "ok")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert tracer.finished == 800
        assert tracer.current().span_id == session.span_id
