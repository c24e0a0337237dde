"""The workload generator: open-loop sources + scheduled arrivals + replies.

This is the ``engine.generator`` every ``SimConfig`` builds (through
:func:`~repro.workload.spec.build_workload`, the only constructor).
It composes three arrival streams:

* **Open-loop sources** — an :class:`~repro.workload.arrivals.ArrivalProcess`
  plus a destination pattern and length distribution, active over a
  ``[start, stop)`` clock window.  Phased workloads are just several
  sources with disjoint windows.
* **Scheduled arrivals** — a static, pre-sorted list of
  ``(cycle, src, dst, length)`` entries: trace replays, incast bursts,
  and phase collectives.  Entries whose cycle passed but could not be
  admitted (full queue) stay pending and re-offer every cycle -- the
  workload is preserved exactly, only its admission may slip.
* **Replies** — when a :class:`RequestReply` policy is attached the
  engine points its delivery hook here (``engine.delivery_listener``);
  delivery of a tracked request at a server schedules a reply back to
  the client after ``service_time`` cycles.  Replies are dynamic
  scheduled arrivals (a heap), so they are wake events for the fast
  engine like everything else.

Fast-engine contract (:meth:`skip_state`): the generator classifies the
current cycle as ``busy`` (pending admissions — no skip), ``paced`` (a
per-cycle-draw process is active — run generator draws every cycle), or
``at`` (pure scheduled future work — skip straight to it).  The
reference engine never calls it; both engines tick() identically.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..network.message import Message
from ..traffic.lengths import LengthDistribution
from ..traffic.patterns import TrafficPattern
from .arrivals import ArrivalProcess, BernoulliArrivals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine
    from ..topology.base import Topology

_INF = float("inf")


@dataclass(frozen=True)
class ScheduledArrival:
    """One pre-planned message arrival (trace entry, burst, collective)."""

    cycle: int
    src: int
    dst: int
    length: int
    #: True when this arrival is a server's reply (accounting only).
    reply: bool = False


@dataclass
class OpenLoopSource:
    """One stochastic source: process x pattern x lengths over a window."""

    process: ArrivalProcess
    pattern: TrafficPattern
    lengths: LengthDistribution
    start: int = 0
    stop: Optional[int] = None  # exclusive; None = never stops
    #: admitted messages to a server count as requests (client-server).
    track_requests: bool = False

    def offers(
        self, topology: "Topology", now: int
    ) -> List[Tuple[int, int, int]]:
        """Cycle ``now``'s arrivals as ``(src, dst, length)``.

        Nothing outside ``[start, stop)`` or at zero rate (no draws
        either).  The draw order is defined here and nowhere else: node
        by node, the arrival decision, then the destination, then the
        length (E23's byte-identical workloads rest on it).  Callers
        may consume the whole list before acting on it: admission
        draws nothing from these streams.
        """
        process = self.process
        if now < self.start or process.idle() or (
            self.stop is not None and now >= self.stop
        ):
            return []
        pattern = self.pattern
        lengths = self.lengths
        num_nodes = topology.num_nodes
        out: List[Tuple[int, int, int]] = []
        if type(process) is BernoulliArrivals:
            # One shared stream: ``emits`` / ``rng_for`` draw for draw,
            # minus two method calls per node on the default workload.
            rng = process._rng
            rate = process.rate
            rnd = rng.random
            for src in range(num_nodes):
                if rnd() >= rate:
                    continue
                dst = pattern.destination(topology, src, rng)
                if dst is None or dst == src:
                    continue
                out.append((src, dst, lengths.sample(rng)))
            return out
        for src in range(num_nodes):
            for _ in range(process.emits(src, now)):
                rng = process.rng_for(src)
                dst = pattern.destination(topology, src, rng)
                if dst is None or dst == src:
                    continue
                out.append((src, dst, lengths.sample(rng)))
        return out


class RequestReply:
    """Server-side reply policy for client-server workloads.

    Delivery of a tracked request at ``server`` schedules a reply to
    the request's source ``service_time`` cycles later; the reply's
    length is drawn from a deterministic per-server RNG stream, so the
    reply traffic is a pure function of the delivery sequence (which is
    itself deterministic per seed — both engines agree event-for-event).
    """

    def __init__(
        self,
        servers: Sequence[int],
        lengths: LengthDistribution,
        service_time: int = 8,
        seed=0,
    ) -> None:
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        self.servers = tuple(sorted(set(servers)))
        if not self.servers:
            raise ValueError("request/reply needs at least one server")
        self.server_set = frozenset(self.servers)
        self.lengths = lengths
        self.service_time = service_time
        self._rngs = {
            server: random.Random(f"{seed}:server:{server}")
            for server in self.servers
        }

    def reply_length(self, server: int) -> int:
        return self.lengths.sample(self._rngs[server])


class WorkloadGenerator:
    """The engine's message source: every arrival of a run comes from here."""

    def __init__(
        self,
        topology: "Topology",
        sources: Iterable[OpenLoopSource] = (),
        scheduled: Iterable[ScheduledArrival] = (),
        request_reply: Optional[RequestReply] = None,
        seed=0,
    ) -> None:
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self.sources: List[OpenLoopSource] = list(sources)
        self._entries: List[ScheduledArrival] = sorted(
            scheduled, key=lambda e: e.cycle
        )
        self._cursor = 0
        self._pending: List[ScheduledArrival] = []
        # Replies scheduled at delivery time: (due, seq, server, client,
        # length).  The seq breaks ties deterministically.
        self._replies: List[tuple] = []
        self._reply_seq = 0
        self.request_reply = request_reply
        self._outstanding: Set[int] = set()
        for source in self.sources:
            source.process.bind(self.num_nodes, seed, source.start)
        self.generated = 0
        self.replayed = 0
        self.requests_sent = 0
        self.replies_sent = 0
        self._engine: Optional["Engine"] = None

    # -- engine integration --------------------------------------------

    @property
    def wants_delivery_hook(self) -> bool:
        """True when build() must set ``engine.delivery_listener``."""
        return self.request_reply is not None

    def tick(self, engine: "Engine", now: int) -> None:
        self._engine = engine
        if self._pending or self._replies or \
                self._cursor < len(self._entries):
            self._admit_scheduled(engine, now)
        topology = self.topology
        rr = self.request_reply
        for source in self.sources:
            track = source.track_requests and rr is not None
            for src, dst, length in source.offers(topology, now):
                message = Message(
                    src, dst, length, created_at=now,
                    seq=engine.next_seq(src, dst),
                )
                if engine.admit(message):
                    self.generated += 1
                    if track and dst in rr.server_set:
                        self._outstanding.add(message.uid)
                        self.requests_sent += 1
                        engine.stats.counters["workload_requests"] += 1

    def on_delivered(self, message: "Message", now: int) -> None:
        """Receiver delivery hook: schedule the reply for a request."""
        rr = self.request_reply
        if rr is None or message.uid not in self._outstanding:
            return
        self._outstanding.discard(message.uid)
        due = now + rr.service_time
        heapq.heappush(
            self._replies,
            (due, self._reply_seq, message.dst, message.src,
             rr.reply_length(message.dst)),
        )
        self._reply_seq += 1

    @property
    def exhausted(self) -> bool:
        """False while the workload still owes scheduled arrivals.

        Owed work: unreached/unadmitted scheduled entries, queued
        replies, and in-flight requests (their delivery will schedule a
        reply).  Stochastic sources do not count — they are silenced
        during the drain phase.  Requests
        that died (abandoned at the retry limit) are pruned against the
        engine's live set so an undeliverable request cannot wedge the
        drain loop.
        """
        if self._pending or self._replies or \
                self._cursor < len(self._entries):
            return False
        if self._outstanding:
            engine = self._engine
            if engine is not None:
                self._outstanding &= engine.live
            if self._outstanding:
                return False
        return True

    def skip_state(self, now: int):
        """Fast-engine wake protocol: ('busy'|'paced'|'at', cycle).

        ``busy``: a due arrival could not be admitted — re-offer every
        cycle, no skipping.  ``paced``: a per-cycle-draw process is
        active, so the generator must tick every cycle (the fast engine
        runs its paced loop).  ``at``: nothing happens before the
        returned cycle — scheduled entries, queued replies, and future
        source windows are all wake events.
        """
        if self._pending:
            return ("busy", now)
        nxt = _INF
        if self._cursor < len(self._entries):
            nxt = self._entries[self._cursor].cycle
        if self._replies and self._replies[0][0] < nxt:
            nxt = self._replies[0][0]
        for source in self.sources:
            process = source.process
            if process.idle():
                continue
            if source.stop is not None and now >= source.stop:
                continue
            if now < source.start:
                if source.start < nxt:
                    nxt = source.start
                continue
            if process.per_cycle_draws:
                return ("paced", now)
            arrival = process.next_arrival(now)
            if source.stop is not None and arrival >= source.stop:
                continue
            if arrival < nxt:
                nxt = arrival
        return ("at", nxt)

    # -- internals ------------------------------------------------------

    def _admit_scheduled(self, engine: "Engine", now: int) -> None:
        entries = self._entries
        while self._cursor < len(entries) and \
                entries[self._cursor].cycle <= now:
            self._pending.append(entries[self._cursor])
            self._cursor += 1
        while self._replies and self._replies[0][0] <= now:
            due, _, server, client, length = heapq.heappop(self._replies)
            self._pending.append(
                ScheduledArrival(due, server, client, length, reply=True)
            )
        if not self._pending:
            return
        still_pending: List[ScheduledArrival] = []
        for entry in self._pending:
            message = Message(
                entry.src,
                entry.dst,
                entry.length,
                created_at=entry.cycle,
                seq=engine.next_seq(entry.src, entry.dst),
            )
            if engine.admit(message):
                self.generated += 1
                self.replayed += 1
                if entry.reply:
                    self.replies_sent += 1
                    engine.stats.counters["workload_replies"] += 1
            else:
                still_pending.append(entry)
        self._pending = still_pending
