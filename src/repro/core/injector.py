"""The CR injector: the source network-interface state machine.

This is the paper's Section-5 "network injector" hardware: a distance
calculator and adders for Imin (padding), a stall counter compared
against the timeout, pad-flit generation, and the kill trigger.  One
injector drives one injection channel; a node may have several (the
multi-source-channel interface of Fig. 14(e,f)).

Per cycle the injector either launches the next flit of its current
message (when the injection channel has a credit) or counts a stall;
when the stall count crosses the timeout threshold under CR/FCR it kills
the message.  Injecting the final flit *commits* the message: by the
padding lemma its header has been consumed at the destination, so the
source releases it -- the flow-control handshake was the acknowledgement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..network.flit import Flit, FlitKind
from .padding import cr_wire_length, fcr_wire_length
from .protocol import KillCause, MessagePhase, ProtocolMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.channel import Channel
    from ..network.message import Message
    from .node import Node

#: queued messages a free injector looks at for one it may start (the
#: order gate and retransmission gaps can hold back the queue's head).
INJECTION_SCAN_WINDOW = 8


class Injector:
    """State machine feeding one injection channel."""

    def __init__(self, node: "Node", channel: "Channel", engine) -> None:
        self.node = node
        self.channel = channel
        self.engine = engine
        self.current: Optional["Message"] = None
        self.vc = 0
        self.next_index = 0
        self.stall = 0

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def step(self, now: int) -> None:
        if self.current is None:
            self._try_start(now)
        if self.current is not None:
            self._try_send(now)

    def abort(self, message: "Message") -> None:
        """Drop the current transmission (its worm is being killed)."""
        if self.current is message:
            self.current = None
            self.stall = 0

    @property
    def busy(self) -> bool:
        return self.current is not None

    # ------------------------------------------------------------------
    # Starting a transmission attempt
    # ------------------------------------------------------------------

    def _try_start(self, now: int) -> None:
        queue = self.node.queue
        if not queue:
            return
        gate = self.node.gate
        seen_dsts = set()
        for index, message in enumerate(queue):
            if index >= INJECTION_SCAN_WINDOW:
                return
            if gate.enabled:
                # Order preservation: never overtake an earlier queued
                # message to the same destination.
                if message.dst in seen_dsts:
                    continue
                seen_dsts.add(message.dst)
            if message.retransmit_at is not None and message.retransmit_at > now:
                continue
            if not gate.may_start(message):
                continue
            vc = self._pick_injection_vc(message)
            if vc is None:
                # All injection-buffer lanes busy; nothing can start.
                return
            del queue[index]
            self._start(message, vc, now)
            return

    def _pick_injection_vc(self, message: "Message") -> Optional[int]:
        free = [
            vc
            for vc in range(self.channel.num_vcs)
            if self.channel.sinks[vc] is not None
            and self.channel.sinks[vc].owner is None
        ]
        if not free:
            return None
        return self.engine.routing.injection_vc(
            message, self.channel.num_vcs, free, self.engine.rng
        )

    def _start(self, message: "Message", vc: int, now: int) -> None:
        protocol = self.engine.protocol
        hops = self.engine.topology.min_distance(message.src, message.dst)
        # Misrouted attempts may take a longer path; size the padding
        # for the worst case so the Imin lemma holds on detours too.
        budget = self.engine.routing.misroute_budget(message)
        message.misroute_budget = budget
        hops_bound = hops + 2 * budget
        if protocol.mode is ProtocolMode.CR:
            wire = cr_wire_length(
                message.payload_length, hops_bound, protocol.padding
            )
        elif protocol.mode is ProtocolMode.FCR:
            wire = fcr_wire_length(
                message.payload_length, hops_bound, protocol.padding
            )
        else:
            # PLAIN and PCS send the bare payload (no Imin padding).
            wire = message.payload_length
        first_attempt = message.attempts == 0
        message.begin_attempt(wire, now)
        if first_attempt:
            self.engine.routing.assign_lane(message, self.engine.rng)
        self.node.gate.on_start(message)
        self.engine.stats.on_attempt(message)
        if self.engine.bus is not None:
            from ..obs.events import InjectionStarted

            self.engine.bus.emit(InjectionStarted(
                now, message.uid, message.src, message.dst,
                message.attempts, wire,
            ))
        self.engine.injecting.add(message)
        self.engine.in_flight.add(message)
        self.current = message
        self.vc = vc
        self.next_index = 0
        self.stall = 0
        if protocol.mode is ProtocolMode.PCS:
            # Reserve the injection buffer and send a probe instead of
            # data; streaming begins once the circuit acknowledges.
            sink = self.channel.sinks[vc]
            sink.acquire(message, now)
            message.segments.append(sink)
            self.engine.pcs.launch(message)

    # ------------------------------------------------------------------
    # Streaming flits
    # ------------------------------------------------------------------

    def _make_flit(self, message: "Message", index: int) -> Flit:
        if index == 0:
            kind = FlitKind.HEAD
        elif index < message.payload_length:
            kind = FlitKind.BODY
        else:
            kind = FlitKind.PAD
        return Flit(
            message, kind, index, is_tail=(index == message.wire_length - 1)
        )

    def _try_send(self, now: int) -> None:
        message = self.current
        assert message is not None
        pcs = self.engine.protocol.mode is ProtocolMode.PCS
        if pcs:
            if message.phase is MessagePhase.PROBING:
                return  # circuit still being reserved
            if (
                message.stream_start_at is not None
                and now < message.stream_start_at
            ):
                return  # acknowledgement still in flight
        if not self.channel.can_send(self.vc):
            self.stall += 1
            self.engine.stats.on_injection_stall()
            if self.stall == 1 and self.engine.bus is not None:
                # Once per stall streak, not once per stalled cycle.
                from ..obs.events import InjectionStalled

                self.engine.bus.emit(
                    InjectionStalled(now, message.uid, message.src)
                )
            self._check_timeout(message, now)
            return
        flit = self._make_flit(message, self.next_index)
        self.channel.send(self.vc, flit, now)
        sink = self.channel.sinks[self.vc]
        self.engine.note_arrival(sink)
        if flit.is_head and not pcs:
            # (Under PCS the probe acquired the path already.)
            sink.acquire(message, now)
            message.segments.append(sink)
        if flit.kind is FlitKind.PAD:
            message.pad_flits_sent += 1
        message.flits_injected += 1
        self.engine.stats.on_flit_injected(flit.kind is FlitKind.PAD)
        self.engine.mark_progress(now)
        self.stall = 0
        self.next_index += 1
        if flit.is_tail:
            self._commit(message, now)

    def _check_timeout(self, message: "Message", now: int) -> None:
        protocol = self.engine.protocol
        if protocol.mode in (ProtocolMode.PLAIN, ProtocolMode.PCS):
            # Classic wormhole blocks indefinitely; a PCS circuit cannot
            # block at all, so neither mode kills on stall.
            return
        if protocol.path_wide is not None:
            return  # E10 ablation: monitoring moved into the routers
        if protocol.timeout.fires(self.stall, message, self.engine.num_vcs):
            self.current = None
            self.stall = 0
            self.engine.kills.initiate(
                message, KillCause.SOURCE_TIMEOUT, backward=False, now=now
            )

    def _commit(self, message: "Message", now: int) -> None:
        message.phase = MessagePhase.COMMITTED
        message.committed_at = now
        if self.engine.bus is not None:
            from ..obs.events import MessageCommitted

            self.engine.bus.emit(
                MessageCommitted(now, message.uid, message.src, message.dst)
            )
        self.node.gate.on_commit(message)
        self.engine.injecting.discard(message)
        if self.engine.checker is not None:
            self.engine.checker.on_commit(message, now)
        self.current = None
