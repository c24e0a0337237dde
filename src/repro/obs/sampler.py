"""Periodic time-series metrics sampled alongside ``StatsCollector``.

End-of-run scalars say *that* a run saturated; the sampler says *when*.
Every ``interval`` cycles it closes a sample holding the interval's
counter deltas (flits injected, payload delivered, kills, messages
created/delivered), the latency distribution of messages delivered
*within the interval*, and an instantaneous total buffer occupancy --
the curve shapes behind stalled injections, kill storms, and post-fault
recovery.

The sampler is engine-driven (``engine.sampler`` is checked once per
cycle, same guard discipline as the event bus) and closes on interval
boundaries; :meth:`finalize` closes the trailing partial interval at
the end of a run.  Samples are plain dicts end to end, so they ride a
``run_simulation`` report across process boundaries and into the
campaign SQLite store unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..stats.latency import percentile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine
    from .alerts import AlertEngine
    from .server import EngineTelemetry

#: counters whose per-interval deltas the sampler records.
_DELTA_COUNTERS = (
    "flits_injected",
    "payload_flits_delivered",
    "messages_created",
    "messages_delivered",
    "kills",
)


class IntervalSampler:
    """Closes one sample dict every ``interval`` cycles.

    A sample covers the interval ``[start, end)``: its ``index``, the
    counter deltas (``injected_flits``, ``delivered_flits``,
    ``created_messages``, ``delivered_messages``, ``kills``),
    ``accepted_load`` (injected flits per node-cycle), ``throughput``
    (delivered payload flits per node-cycle), ``kill_rate`` (kills per
    message delivered in the interval), ``latency_mean`` and
    ``latency_p99`` of the messages delivered in it -- None when it
    delivered nothing (an empty window has no latency, and 0.0 would
    read as "instant delivery" in downstream aggregates) -- and
    ``occupancy``, the total buffered flits at the close.
    """

    def __init__(self, engine: "Engine", interval: int = 100) -> None:
        if interval < 1:
            raise ValueError("sample interval must be >= 1")
        self.engine = engine
        self.interval = interval
        self.samples: List[Dict[str, Any]] = []
        #: sample listeners, called as ``listener.on_sample(engine,
        #: sample)`` right after a window closes -- the alert engine
        #: and telemetry publisher hook in here, so their cost lands
        #: only on sampling boundaries (which the fast engine already
        #: wakes for), never in the per-cycle hot path.
        self.listeners: List[Union["AlertEngine", "EngineTelemetry"]] = []
        self._start = 0
        self._base = {name: 0 for name in _DELTA_COUNTERS}
        self._latency_base = 0

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------

    def on_cycle(self, now: int) -> None:
        """Called by the engine at the end of every cycle."""
        if (now + 1 - self._start) >= self.interval:
            self._close(now + 1)

    def finalize(self, now: int) -> None:
        """Close the trailing partial interval, if it saw any cycles."""
        if now > self._start:
            self._close(now)

    # ------------------------------------------------------------------
    # Sample construction
    # ------------------------------------------------------------------

    def _close(self, end: int) -> None:
        engine = self.engine
        counters = engine.stats.counters
        deltas = {}
        for name in _DELTA_COUNTERS:
            current = counters[name]
            deltas[name] = current - self._base[name]
            self._base[name] = current

        latencies = engine.stats.total_latencies[self._latency_base:]
        self._latency_base = len(engine.stats.total_latencies)
        if latencies:
            mean: Optional[float] = sum(latencies) / len(latencies)
            p99: Optional[float] = percentile(sorted(latencies), 0.99)
        else:
            # No deliveries in the window: latency is undefined, not 0.
            mean = None
            p99 = None

        from ..stats.trace import buffer_occupancy

        occupancy = sum(buffer_occupancy(engine).values())

        span = end - self._start
        node_cycles = engine.topology.num_nodes * span
        delivered_messages = deltas["messages_delivered"]
        sample = {
            "index": len(self.samples),
            "start": self._start,
            "end": end,
            "injected_flits": deltas["flits_injected"],
            "delivered_flits": deltas["payload_flits_delivered"],
            "created_messages": deltas["messages_created"],
            "delivered_messages": delivered_messages,
            "kills": deltas["kills"],
            "accepted_load": deltas["flits_injected"] / node_cycles,
            "throughput": deltas["payload_flits_delivered"] / node_cycles,
            "kill_rate": (deltas["kills"] / delivered_messages
                          if delivered_messages else 0.0),
            "latency_mean": mean,
            "latency_p99": p99,
            "occupancy": occupancy,
        }
        self.samples.append(sample)
        self._start = end
        for listener in self.listeners:
            listener.on_sample(engine, sample)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """The samples as flat JSON-ready dicts (copies)."""
        return [dict(sample) for sample in self.samples]

    def series(self, metric: str) -> List[float]:
        """One metric's values across the samples, in time order."""
        return [sample[metric] for sample in self.samples]

    def to_csv(self, path: str) -> int:
        """Write the samples as CSV rows; returns the row count."""
        from ..sim.export import rows_to_csv

        return rows_to_csv(self.rows(), path)

    def to_svg(self, path: str, title: str = "") -> str:
        """Write stacked sparklines of the headline metrics; returns SVG."""
        from ..stats.svg import render_sparkline_rows

        # Undefined values (empty-window latencies) plot as 0.
        svg = render_sparkline_rows(
            [
                (metric,
                 [value if value is not None else 0.0
                  for value in self.series(metric)])
                for metric in ("accepted_load", "throughput", "latency_mean",
                               "kills", "occupancy")
            ],
            title=title,
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
        return svg
