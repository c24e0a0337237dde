"""Typed simulation events and the subscriber bus they flow through.

The event taxonomy covers exactly the *dynamics* the paper argues about:
injection stalls, kill wavefronts (with their extent), backoff draws,
fault activations, and deliveries.  Producers (engine, injector, kill
manager, receiver, fault models) construct an event only after checking
that a bus is attached, so an untraced run never pays more than one
attribute load and an ``is None`` test per potential emission site.
The 3% bound :mod:`benchmarks.bench_obs_overhead` asserts is the
*no-sink* cost -- constructing every event and emitting it into a bus
nobody listens to, against a reference-engine run.  It is not what a
traced run pays: the benchmark's ``obs.events_overhead`` attaches a
``ListSink`` to the fast engine and reads 0.10-0.13 on
``saturated_fast`` (see docs/OBSERVABILITY.md, "Overhead").

Events are frozen dataclasses with a ``cycle`` timestamp; they carry
plain ints/strings only, so every event serialises to JSON via
:func:`event_to_dict` without custom encoders.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class Event:
    """Base class: every event records the cycle it happened at."""

    cycle: int


@dataclass(frozen=True)
class MessageCreated(Event):
    """A message was admitted to its source node's queue."""

    uid: int
    src: int
    dst: int
    payload_length: int


@dataclass(frozen=True)
class InjectionStarted(Event):
    """An injector began streaming an attempt (header flit next cycle)."""

    uid: int
    src: int
    dst: int
    attempt: int
    wire_length: int


@dataclass(frozen=True)
class InjectionStalled(Event):
    """An injection-channel stall streak began (credits exhausted).

    Emitted once per streak -- at the first stalled cycle -- not once
    per stalled cycle, so trace volume stays bounded at high load.
    """

    uid: int
    src: int


@dataclass(frozen=True)
class MessageCommitted(Event):
    """The tail left the source: delivery is now guaranteed."""

    uid: int
    src: int
    dst: int


@dataclass(frozen=True)
class MessageDelivered(Event):
    """The tail was consumed at the destination."""

    uid: int
    src: int
    dst: int
    payload_length: int
    total_latency: Optional[int]
    network_latency: Optional[int]
    corrupt: bool


@dataclass(frozen=True)
class KillStarted(Event):
    """A worm was frozen and its teardown wavefront scheduled.

    ``wavefront_extent`` is the number of buffer segments the wavefront
    must flush -- the spatial extent of the worm at the kill.
    """

    uid: int
    cause: str  #: a :class:`~repro.core.protocol.KillCause` value
    backward: bool
    wavefront_extent: int


@dataclass(frozen=True)
class KillCompleted(Event):
    """The wavefront finished flushing; the message was requeued
    (``outcome='requeued'``) or abandoned at the retry limit
    (``outcome='abandoned'``)."""

    uid: int
    outcome: str


@dataclass(frozen=True)
class Retransmit(Event):
    """The backoff policy drew a retransmission gap for a killed worm."""

    uid: int
    attempt: int  #: attempts completed so far (the one just killed)
    gap: int  #: the backoff draw, in cycles
    retransmit_at: int  #: earliest cycle the retry may start


@dataclass(frozen=True)
class FaultActivated(Event):
    """A fault fired: a channel died or a flit was corrupted in flight.

    ``kind`` is ``'channel_dead'`` (permanent schedule) or
    ``'transient'`` (per-traversal corruption); ``uid`` names the
    affected message for transient faults, None for channel deaths.
    """

    kind: str
    src: int
    dst: int
    uid: Optional[int] = None


@dataclass(frozen=True)
class AlertEvent(Event):
    """An alert rule crossed a firing/resolving transition.

    Emitted by :class:`repro.obs.alerts.AlertEngine` at a sampler
    boundary (``cycle`` is the window's end), never from the per-cycle
    hot path.  ``state`` is ``'firing'`` or ``'resolved'``; ``value``
    is the metric value at the transition (None for absence rules).
    """

    rule: str
    severity: str  #: one of :data:`repro.obs.alerts.SEVERITIES`
    state: str
    value: Optional[float]
    message: str


#: every concrete event type, for sinks that key behaviour on the name.
EVENT_TYPES = (
    MessageCreated,
    InjectionStarted,
    InjectionStalled,
    MessageCommitted,
    MessageDelivered,
    KillStarted,
    KillCompleted,
    Retransmit,
    FaultActivated,
    AlertEvent,
)


def event_to_dict(event: Event) -> Dict[str, Any]:
    """A JSON-ready flat dict: ``{"event": <type name>, ...fields}``."""
    out: Dict[str, Any] = {"event": type(event).__name__}
    out.update(dataclasses.asdict(event))
    return out


class EventBus:
    """Fans events out to subscribed sinks, in subscription order.

    The engine holds ``bus = None`` until :func:`repro.obs.attach`
    installs one, so the untraced hot path is a single guard check; the
    bus itself is only ever reached when at least one sink wants the
    events.
    """

    __slots__ = ("sinks",)

    def __init__(self) -> None:
        self.sinks: List[Any] = []

    def subscribe(self, sink: Any) -> None:
        if sink not in self.sinks:
            self.sinks.append(sink)

    def unsubscribe(self, sink: Any) -> None:
        if sink in self.sinks:
            self.sinks.remove(sink)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.on_event(event)

    def __len__(self) -> int:
        return len(self.sinks)
