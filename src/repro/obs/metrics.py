"""Typed operational metrics: counters, gauges, histograms.

The registry replaces ad-hoc dict plumbing with *declared* metrics:
every metric has a stable name, a type, and a help string, so a
snapshot is self-describing whether it is scraped as Prometheus text
(:meth:`MetricsRegistry.prometheus_text`) or journaled as JSON
(:meth:`MetricsRegistry.snapshot`).  Publishers:

* :func:`engine_metrics` snapshots a live (or finished) engine -- every
  :class:`~repro.stats.collector.StatsCollector` counter under its
  declared help text, instantaneous gauges (live messages, occupancy,
  active kill wavefronts, busy injectors), and the measured latency
  distribution as a fixed-bucket histogram;
* the campaign monitor keeps progress counters and point wall-time
  histograms, which ``/metrics`` shows next to the heartbeat on
  ``/status`` (see :mod:`repro.campaign.monitor`).

The registry is snapshot-oriented, not hot-path-resident: the engine
keeps feeding its plain ``Counter`` dict (one dict op per event), and a
registry is built from it on demand.  Nothing here runs per cycle.

The registry is also safe to share across threads: registration and
every mutation/export path serialise on one registry lock, so the
telemetry server's scrape thread reads an *atomic* snapshot while the
publishing thread keeps incrementing (standalone metric instances get
their own lock).

:func:`parse_prometheus_text` parses the text format back -- the
round-trip assertion CI and the tests rely on.  Label values escape
and unescape losslessly (backslash, double-quote, newline).
"""

from __future__ import annotations

import math
import os
import re
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: fixed bucket layout for message-latency histograms (cycles).
LATENCY_BUCKETS: Tuple[float, ...] = (
    16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
)

#: fixed bucket layout for per-point wall-time histograms (seconds).
WALL_TIME_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}


def _parse_label_block(text: str) -> Tuple[LabelKey, str]:
    """Parse a ``{name="value",...}`` block (escapes included).

    ``text`` starts at the opening brace; returns the label pairs in
    written order plus the remainder after the closing brace.  A
    character scan, not a regex -- escaped quotes and braces *inside*
    label values must not terminate the block.
    """
    pairs: List[Tuple[str, str]] = []
    i = 1
    try:
        while True:
            if text[i] == "}":
                return tuple(pairs), text[i + 1:]
            match = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", text[i:])
            if not match or text[i + match.end()] != "=":
                raise ValueError
            name = match.group(0)
            i += match.end() + 1
            if text[i] != '"':
                raise ValueError
            i += 1
            chars: List[str] = []
            while text[i] != '"':
                if text[i] == "\\":
                    i += 1
                    if text[i] not in _UNESCAPE:
                        raise ValueError
                    chars.append(_UNESCAPE[text[i]])
                else:
                    chars.append(text[i])
                i += 1
            pairs.append((name, "".join(chars)))
            i += 1
            if text[i] == ",":
                i += 1
            elif text[i] != "}":
                raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"malformed label block in: {text!r}")


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing count.

    ``lock`` serialises mutation against snapshot/export; registry-
    created instances share the registry's lock, standalone ones get
    their own.
    """

    kind = "counter"
    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def sample_lines(self, name: str, labels: LabelKey) -> List[str]:
        return [f"{name}{_render_labels(labels)} {_fmt_value(self.value)}"]

    def as_json(self) -> Any:
        return self.value


class Gauge:
    """A value that is set, not accumulated."""

    kind = "gauge"
    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def sample_lines(self, name: str, labels: LabelKey) -> List[str]:
        return [f"{name}{_render_labels(labels)} {_fmt_value(self.value)}"]

    def as_json(self) -> Any:
        return self.value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds, strictly increasing; a ``+Inf``
    bucket is implicit.  Layouts are fixed at registration so every
    snapshot of the same metric is mergeable.
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "inf_count", "sum", "count",
                 "_lock")

    def __init__(self, buckets: Sequence[float],
                 lock: Optional[threading.RLock] = None) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.inf_count += 1

    def sample_lines(self, name: str, labels: LabelKey) -> List[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            key = labels + (("le", _fmt_value(bound)),)
            lines.append(
                f"{name}_bucket{_render_labels(key)} {cumulative}"
            )
        key = labels + (("le", "+Inf"),)
        lines.append(f"{name}_bucket{_render_labels(key)} {self.count}")
        lines.append(
            f"{name}_sum{_render_labels(labels)} {_fmt_value(self.sum)}"
        )
        lines.append(f"{name}_count{_render_labels(labels)} {self.count}")
        return lines

    def as_json(self) -> Any:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts) + [self.inf_count],
            "sum": self.sum,
            "count": self.count,
        }


class _Family:
    """One metric name: its type, help text, and labelled instances."""

    __slots__ = ("name", "kind", "help", "instances")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.instances: Dict[LabelKey, Any] = {}


class MetricsRegistry:
    """A namespace of typed metrics, exportable as Prometheus or JSON."""

    def __init__(self, prefix: str = "") -> None:
        if prefix and not _NAME_RE.match(prefix):
            raise ValueError(f"invalid metric prefix {prefix!r}")
        self.prefix = prefix
        self._families: Dict[str, _Family] = {}
        # One reentrant lock covers registration, every instance's
        # mutation, and export: snapshot()/prometheus_text() observe a
        # point-in-time state even while other threads increment.
        self._lock = threading.RLock()

    # -- registration ---------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> _Family:
        full = self.prefix + name
        if not _NAME_RE.match(full):
            raise ValueError(f"invalid metric name {full!r}")
        family = self._families.get(full)
        if family is None:
            family = _Family(full, kind, help)
            self._families[full] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {full!r} already registered as {family.kind}, "
                f"not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        with self._lock:
            family = self._family(name, "counter", help)
            key = _label_key(labels or {})
            instance = family.instances.get(key)
            if instance is None:
                instance = family.instances[key] = Counter(self._lock)
            return instance

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        with self._lock:
            family = self._family(name, "gauge", help)
            key = _label_key(labels or {})
            instance = family.instances.get(key)
            if instance is None:
                instance = family.instances[key] = Gauge(self._lock)
            return instance

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        with self._lock:
            family = self._family(name, "histogram", help)
            instance = family.instances.get(())
            if instance is None:
                instance = family.instances[()] = Histogram(
                    buckets, self._lock
                )
            return instance

    # -- introspection --------------------------------------------------

    def names(self) -> List[str]:
        """Registered family names, sorted."""
        with self._lock:
            return sorted(self._families)

    def families(self) -> List[Tuple[str, str, str]]:
        """``(name, type, help)`` per registered family, sorted by name."""
        with self._lock:
            return [(f.name, f.kind, f.help)
                    for f in (self._families[n] for n in self.names())]

    # -- export ---------------------------------------------------------

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format.

        Atomic with respect to concurrent registration and increments:
        the whole render happens under the registry lock.
        """
        with self._lock:
            lines: List[str] = []
            for name in self.names():
                family = self._families[name]
                lines.append(f"# HELP {name} {_escape(family.help)}")
                lines.append(f"# TYPE {name} {family.kind}")
                for key in sorted(family.instances):
                    lines.extend(
                        family.instances[key].sample_lines(name, key)
                    )
            return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready dict: name -> {type, help, values}.

        Atomic: taken under the registry lock, so a reader thread never
        sees a half-updated histogram or a family mid-registration.
        """
        with self._lock:
            out: Dict[str, Any] = {}
            for name in self.names():
                family = self._families[name]
                values = {}
                for key in sorted(family.instances):
                    label = _render_labels(key) or ""
                    values[label] = family.instances[key].as_json()
                out[name] = {
                    "type": family.kind,
                    "help": family.help,
                    "values": values,
                }
            return out

    def write_prometheus(self, path: str) -> str:
        """Write the text exposition to ``path``; returns the text."""
        text = self.prometheus_text()
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text format back into families.

    Returns ``{name: {"type": ..., "help": ..., "samples":
    {sample_line_name+labels: value}}}``.  Histogram ``_bucket`` /
    ``_sum`` / ``_count`` samples are attributed to their family name.
    Raises ``ValueError`` on a line that is neither a comment nor a
    well-formed sample.
    """
    out: Dict[str, Dict[str, Any]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] or sample_name
            if (sample_name.endswith(suffix) and base in out
                    and out[base]["type"] == "histogram"):
                return base
        return sample_name

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            out.setdefault(
                name, {"type": None, "help": "", "samples": {}}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            out.setdefault(
                name, {"type": None, "help": "", "samples": {}}
            )["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        name_match = re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*", line)
        if not name_match:
            raise ValueError(f"unparsable metric sample line: {line!r}")
        sample_name = name_match.group(0)
        rest = line[name_match.end():]
        labels = ""
        if rest.startswith("{"):
            # Character scan, not a regex: label values may contain
            # escaped quotes, newlines, and even ``}``.  Re-render
            # canonically so parsed keys match freshly exported ones.
            try:
                pairs, rest = _parse_label_block(rest)
            except ValueError:
                raise ValueError(
                    f"unparsable metric sample line: {line!r}"
                )
            labels = _render_labels(pairs)
        value_text = rest.strip()
        if not value_text or not rest[:1].isspace() or " " in value_text:
            raise ValueError(f"unparsable metric sample line: {line!r}")
        value = math.inf if value_text == "+Inf" else float(value_text)
        family = family_of(sample_name)
        entry = out.setdefault(
            family, {"type": None, "help": "", "samples": {}}
        )
        entry["samples"][sample_name + labels] = value
    return out


# ----------------------------------------------------------------------
# Engine publication
# ----------------------------------------------------------------------

#: declared help text per StatsCollector counter.  Counters the engine
#: emits but that are not declared here still publish (with a generic
#: help line) -- the registry must never silently drop a metric.
COUNTER_HELP: Dict[str, str] = {
    "messages_created": "Messages admitted to source node queues.",
    "messages_delivered": "Messages whose tail was consumed at the "
                          "destination.",
    "messages_failed": "Messages abandoned at the retry limit.",
    "messages_used_escape": "Delivered messages that took at least one "
                            "escape (Duato PDS) channel.",
    "payload_flits_created": "Payload flits of admitted messages.",
    "payload_flits_delivered": "Payload flits consumed at destinations.",
    "window_payload_flits_delivered": "Payload flits delivered inside "
                                      "the measurement window.",
    "flits_injected": "Flits (payload + padding) injected at sources.",
    "flits_ejected": "Flits consumed off ejection channels.",
    "pad_flits_injected": "Padding flits injected under the Imin rule.",
    "injection_attempts": "Transmission attempts started by injectors.",
    "injection_stall_cycles": "Cycles injectors spent stalled on "
                              "injection-channel credits.",
    "retransmissions": "Attempts beyond each message's first.",
    "kills": "Kill wavefronts initiated (all causes).",
    "kill_segments_flushed": "Worm buffer segments flushed by kill "
                             "wavefronts.",
    "escape_grants": "Header grants onto escape (Duato PDS) channels.",
    "misroute_hops": "Header grants onto non-minimal (misroute) hops.",
    "faults_injected": "Transient flit corruptions injected in flight.",
    "corrupt_deliveries": "Messages delivered with corrupted payload.",
    "late_corruption": "Corruption seen too late to FKILL (must stay 0).",
    "generation_blocked": "Offered messages dropped at full source "
                          "queues.",
    "workload_requests": "Client-server requests admitted at client "
                         "nodes (repro.workload).",
    "workload_replies": "Server replies admitted after request "
                        "delivery (repro.workload).",
    "cascade_channel_faults": "Channels killed by the load-dependent "
                              "cascading fault model.",
    "cascade_events": "Failure clusters that grew past one channel "
                      "(correlated outages).",
    "cascade_clusters": "Distinct failure clusters started by the "
                        "cascading fault model.",
    "cascade_repairs": "Channels restored by the cascading model's "
                       "repair timers.",
}


def engine_metrics(engine: "Engine") -> MetricsRegistry:
    """Publish an engine's state into a new registry.

    Every ``StatsCollector`` counter becomes a typed counter (the
    per-cause ``kills_<cause>`` counters fold into one labelled
    ``kills_by_cause`` family); live-state gauges and the measured
    latency histograms are published alongside.  Safe to call mid-run
    or after a run; the snapshot reflects the moment of the call.
    """
    from ..stats.trace import buffer_occupancy

    registry = MetricsRegistry(prefix="cr_")
    counters = engine.stats.counters
    for name in sorted(counters):
        if name.startswith("kills_"):
            cause = name[len("kills_"):]
            registry.counter(
                "kills_by_cause_total",
                "Kill wavefronts initiated, by cause.",
                labels={"cause": cause},
            ).inc(counters[name])
            continue
        help_text = COUNTER_HELP.get(
            name, f"Engine counter {name!r} (undeclared)."
        )
        registry.counter(f"{name}_total", help_text).inc(counters[name])

    registry.gauge(
        "cycle", "Current simulated cycle."
    ).set(engine.now)
    registry.gauge(
        "live_messages", "Messages admitted but not yet delivered, "
        "failed, or discarded."
    ).set(len(engine.live))
    registry.gauge(
        "in_flight_worms", "Messages with a worm in the network "
        "(including committed ones still draining)."
    ).set(len(engine.in_flight))
    registry.gauge(
        "injecting_worms", "Messages currently streaming from an "
        "injector."
    ).set(len(engine.injecting))
    registry.gauge(
        "kill_wavefronts_active", "Kill wavefronts still flushing."
    ).set(len(engine.kills.dying))
    registry.gauge(
        "injectors_busy", "Injectors currently holding a message."
    ).set(sum(
        1 for node in engine.nodes for inj in node.injectors if inj.busy
    ))
    registry.gauge(
        "buffer_occupancy_flits", "Flits currently held in router "
        "input buffers."
    ).set(sum(buffer_occupancy(engine).values()))

    latency = registry.histogram(
        "message_latency_cycles",
        "Total (queue + network) latency of measured delivered "
        "messages.",
        buckets=LATENCY_BUCKETS,
    )
    for value in engine.stats.total_latencies:
        latency.observe(value)
    network = registry.histogram(
        "network_latency_cycles",
        "Network-only latency of measured delivered messages.",
        buckets=LATENCY_BUCKETS,
    )
    for value in engine.stats.network_latencies:
        network.observe(value)

    # Attribution, composite health, and alert state -- the scrape
    # surface ISSUE 8 adds.  Imported lazily: health/campaign pull in
    # modules that themselves import this one.
    from .. import __version__
    from ..campaign.store import STORE_SCHEMA_VERSION
    from .health import health_components, health_score

    registry.gauge(
        "build_info",
        "Constant 1; the labels attribute scrapes to a repro version, "
        "engine class, and campaign store schema.",
        labels={
            "version": __version__,
            "engine": type(engine).__name__,
            "schema": str(STORE_SCHEMA_VERSION),
        },
    ).set(1)

    components = health_components(engine)
    registry.gauge(
        "network_health",
        "Composite network health in [0, 1]: weighted delivery rate, "
        "channel liveness, kill pressure, occupancy headroom.",
    ).set(health_score(components))
    for component, value in components.items():
        registry.gauge(
            "network_health_component",
            "One component of cr_network_health, each in [0, 1].",
            labels={"component": component},
        ).set(value)

    alerts = getattr(engine, "alerts", None)
    if alerts is not None:
        for severity, count in alerts.firing_by_severity().items():
            registry.gauge(
                "alerts_firing",
                "Alert episodes currently firing, by severity.",
                labels={"severity": severity},
            ).set(count)
    return registry
