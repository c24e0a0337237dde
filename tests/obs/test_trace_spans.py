"""Distributed tracing: spans, parenting, propagation, thread safety."""

import threading

import pytest

from repro.campaign.fabric import _worker_env
from repro.obs.trace import (
    SPAN_STATUSES,
    TRACE_ARM_ENV,
    TRACEPARENT_ENV,
    Span,
    SpanContext,
    Tracer,
    context_from_environ,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    tracing_armed,
)


class TestTraceparent:
    def test_round_trip(self):
        context = SpanContext(new_trace_id(), new_span_id())
        encoded = format_traceparent(context)
        assert encoded == f"00-{context.trace_id}-{context.span_id}-01"
        assert parse_traceparent(encoded) == context

    def test_whitespace_and_case_tolerated(self):
        context = SpanContext("ab" * 16, "cd" * 8)
        raw = "  " + format_traceparent(context).upper() + "\n"
        assert parse_traceparent(raw) == context

    @pytest.mark.parametrize("bad", [
        "",
        "garbage",
        "00-short-deadbeefdeadbeef-01",
        "00-" + "g" * 32 + "-" + "a" * 16 + "-01",  # non-hex
        "00-" + "a" * 32 + "-" + "b" * 16,  # missing flags
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_traceparent(bad)

    def test_all_zero_ids_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            parse_traceparent("00-" + "0" * 32 + "-" + "a" * 16 + "-01")
        with pytest.raises(ValueError, match="all-zero"):
            parse_traceparent("00-" + "a" * 32 + "-" + "0" * 16 + "-01")


class TestEnvironPropagation:
    def test_environ_round_trip(self):
        context = SpanContext(new_trace_id(), new_span_id())
        # the environment the fabric hands a spawned worker
        env = _worker_env(trace=True,
                          traceparent=format_traceparent(context))
        assert env[TRACE_ARM_ENV] == "1"
        assert tracing_armed(env)
        assert context_from_environ(env) == context

    def test_unset_and_malformed_yield_none(self):
        assert context_from_environ({}) is None
        assert context_from_environ({TRACEPARENT_ENV: "nope"}) is None

    def test_unarmed(self):
        assert not tracing_armed({})
        assert not tracing_armed({TRACE_ARM_ENV: "0"})


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
