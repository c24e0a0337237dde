"""Observability for the CR engine: events, sinks, sampling, forensics.

The package is strictly opt-in: an engine is born with ``bus = None``
and every instrumented code path guards with a single ``is None``
check, so untraced runs pay (measurably) nothing.  To trace::

    from repro.obs import ListSink, attach
    from repro.obs.sinks import JsonlSink

    engine = config.build()
    attach(engine, ListSink(), JsonlSink("results/traces/run.jsonl"))
    engine.run(5000)

or use :func:`run_traced` / ``cr-sim trace`` for the batteries-included
path (JSONL + Perfetto + time-series in one call).  See
``docs/OBSERVABILITY.md`` for the event taxonomy and sink guide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine
    from .events import EventBus

#: submodule -> the names imported through ``repro.obs`` (everything
#: else is imported from its submodule); each loads on first use, so a
#: run imports only the layers it arms.
_EXPORTS = {
    "events": ("event_to_dict",),
    "forensics": ("DeadlockReport",),
    "metrics": ("engine_metrics", "parse_prometheus_text"),
    "profile": ("PHASES",),
    "sinks": (
        "DEFAULT_TRACE_DIR", "ListSink", "filter_events", "read_jsonl",
    ),
    "tracing": ("config_for_experiment", "run_traced", "trace_experiments"),
}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(), _EXPORTS, "attach", "open_telemetry"
)


def attach(engine: "Engine", *sinks: Any) -> "EventBus":
    """Install an event bus on ``engine`` and subscribe ``sinks``.

    Reuses the engine's existing bus when one is already attached, so
    repeated calls accumulate sinks.  The fault model (if any) is bound
    to the same bus so fault activations flow to the same sinks.
    """
    bus = engine.bus
    if bus is None:
        from .events import EventBus

        bus = EventBus()
        engine.bus = bus
    for sink in sinks:
        bus.subscribe(sink)
    if engine.fault_model is not None:
        engine.fault_model.bind_bus(bus)
    return bus


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
