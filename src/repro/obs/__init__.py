"""Observability for the CR engine: events, sinks, sampling, forensics.

The package is strictly opt-in: an engine is born with ``bus = None``
and every instrumented code path guards with a single ``is None``
check, so untraced runs pay (measurably) nothing.  To trace::

    from repro.obs import JsonlSink, RingBufferSink, attach

    engine = config.build()
    attach(engine, RingBufferSink(), JsonlSink("results/traces/run.jsonl"))
    engine.run(5000)

or use :func:`run_traced` / ``cr-sim trace`` for the batteries-included
path (JSONL + Perfetto + time-series in one call).  See
``docs/OBSERVABILITY.md`` for the event taxonomy and sink guide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from .alerts import (
    BUILTIN_RULE_NAMES,
    AlertEngine,
    AlertRule,
    builtin_rules,
    load_rules,
    make_alert_engine,
    rules_to_json,
)
from .events import (
    EVENT_TYPES,
    AlertEvent,
    Event,
    EventBus,
    FaultActivated,
    InjectionStalled,
    InjectionStarted,
    KillCompleted,
    KillStarted,
    MessageCommitted,
    MessageCreated,
    MessageDelivered,
    Retransmit,
    event_to_dict,
)
from .forensics import DeadlockReport, build_deadlock_report
from .log import (
    LOG_LEVELS,
    StructuredLogger,
    campaign_log_dir,
    campaign_log_path,
    filter_log_records,
    format_log_record,
    read_campaign_logs,
)
from .health import (
    dead_channel_fraction,
    health_components,
    health_report,
    health_score,
)
from .metrics import (
    MetricsRegistry,
    engine_metrics,
    parse_prometheus_text,
)
from .perfetto import chrome_trace, chrome_trace_events, write_chrome_trace
from .profile import (
    PHASES,
    EngineProfiler,
    attach_profiler,
    detach_profiler,
)
from .sampler import IntervalSample, IntervalSampler
from .sinks import (
    DEFAULT_TRACE_DIR,
    EventSink,
    JsonlSink,
    ListSink,
    ReadResult,
    RingBufferSink,
    filter_events,
    read_jsonl,
)
from .trace import (
    TRACEPARENT_ENV,
    Span,
    SpanContext,
    Tracer,
    context_from_environ,
    format_traceparent,
    parse_traceparent,
    traceparent_environ,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine


def attach(engine: "Engine", *sinks: Any) -> EventBus:
    """Install an event bus on ``engine`` and subscribe ``sinks``.

    Reuses the engine's existing bus when one is already attached, so
    repeated calls accumulate sinks.  The fault model (if any) is bound
    to the same bus so fault activations flow to the same sinks.
    """
    bus = engine.bus
    if bus is None:
        bus = EventBus()
        engine.bus = bus
    for sink in sinks:
        bus.subscribe(sink)
    if engine.fault_model is not None:
        engine.fault_model.bind_bus(bus)
    return bus


def detach(engine: "Engine") -> None:
    """Remove the bus (closing sinks), restoring the untraced fast path."""
    bus = engine.bus
    if bus is None:
        return
    for sink in bus.sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()
    engine.bus = None
    if engine.fault_model is not None:
        engine.fault_model.bind_bus(None)


# run_traced imports back into this package, so it comes last.
from .tracing import (  # noqa: E402
    TracedRun,
    config_for_experiment,
    run_traced,
    trace_experiments,
)

__all__ = [
    "BUILTIN_RULE_NAMES",
    "DEFAULT_TRACE_DIR",
    "EVENT_TYPES",
    "LOG_LEVELS",
    "PHASES",
    "TRACEPARENT_ENV",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "DeadlockReport",
    "EngineProfiler",
    "EngineTelemetry",
    "Event",
    "EventBus",
    "EventSink",
    "FaultActivated",
    "InjectionStalled",
    "InjectionStarted",
    "IntervalSample",
    "IntervalSampler",
    "JsonlSink",
    "KillCompleted",
    "KillStarted",
    "ListSink",
    "MessageCommitted",
    "MessageCreated",
    "MessageDelivered",
    "MetricsRegistry",
    "ReadResult",
    "Retransmit",
    "RingBufferSink",
    "Span",
    "SpanContext",
    "StructuredLogger",
    "TelemetryServer",
    "TracedRun",
    "Tracer",
    "attach",
    "attach_profiler",
    "build_deadlock_report",
    "builtin_rules",
    "campaign_log_dir",
    "campaign_log_path",
    "chrome_trace",
    "chrome_trace_events",
    "config_for_experiment",
    "context_from_environ",
    "dead_channel_fraction",
    "detach",
    "detach_profiler",
    "engine_metrics",
    "event_to_dict",
    "filter_events",
    "filter_log_records",
    "format_log_record",
    "format_traceparent",
    "health_components",
    "health_report",
    "health_score",
    "load_rules",
    "make_alert_engine",
    "make_telemetry_server",
    "open_telemetry",
    "parse_prometheus_text",
    "parse_serve",
    "parse_traceparent",
    "read_campaign_logs",
    "read_jsonl",
    "rules_to_json",
    "run_traced",
    "trace_experiments",
    "traceparent_environ",
    "write_chrome_trace",
]

#: ``repro.obs.server`` brings in ``http.server``; only a run that
#: serves telemetry should pay for that, so its names resolve on demand.
_SERVER_NAMES = (
    "EngineTelemetry",
    "TelemetryServer",
    "make_telemetry_server",
    "parse_serve",
)


def open_telemetry(serve: Any) -> Tuple[Any, bool]:
    """``(started server, owned)`` for a ``serve=`` argument.

    ``None`` / ``False`` is off -- ``(None, False)``, and nothing is
    imported.  A spec coerced into a fresh server is *owned*: whoever
    opened it stops it.  A caller-constructed ``TelemetryServer`` comes
    back as itself, started, and is the caller's to stop (it may be
    shared across runs).
    """
    if serve is None or serve is False:
        return None, False
    from .server import make_telemetry_server

    server = make_telemetry_server(serve)
    return server, server is not serve


def __getattr__(name: str) -> Any:
    if name in _SERVER_NAMES:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
