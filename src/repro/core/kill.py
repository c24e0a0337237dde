"""Kill-signal propagation: tearing down a worm and scheduling the retry.

When a kill is initiated (source timeout, path-wide timeout, FKILL, or a
corrupted header) the worm is *frozen* -- its flits stop advancing, which
is a faithful model because a kill only fires on a stalled worm -- and a
wavefront then flushes its path one segment per cycle, releasing buffers,
returning credits, and dropping flits.  A forward kill (source-initiated)
flushes from the source end; a backward kill (receiver/router-initiated)
from the far end, reaching the source last, which is when the source
learns about it.

When the wavefront completes, the message is requeued at the front of its
source node's queue with a retransmission time computed by the backoff
policy from the moment of the kill (the paper's "retransmission gap").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .protocol import KillCause, MessagePhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.buffer import VCBuffer
    from ..network.message import Message


class KillManager:
    """Owns every in-progress kill wavefront."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.dying: List["Message"] = []

    # ------------------------------------------------------------------
    # Initiation
    # ------------------------------------------------------------------

    def initiate(
        self,
        message: "Message",
        cause: KillCause,
        backward: bool,
        now: int,
        allow_committed: bool = False,
    ) -> None:
        """Freeze ``message`` and start its teardown wavefront.

        No-op if the message is not currently INJECTING: a committed
        message is beyond killing (the CR guarantee), and a message
        already being killed must not be killed twice.  The path-wide
        ablation passes ``allow_committed=True`` because an intermediate
        router cannot know the tail has left the source -- killing
        committed worms is exactly the failure mode that made the paper
        reject the scheme.
        """
        if message.phase is not MessagePhase.INJECTING and not (
            allow_committed and message.phase is MessagePhase.COMMITTED
        ):
            return
        message.phase = MessagePhase.KILLED
        message.kill_reason = cause.value
        if cause is KillCause.FKILL:
            message.fkills += 1
        else:
            message.kills += 1
        engine = self.engine
        engine.stats.on_kill(message, cause.value)
        message.kill_history.append((now, cause.value))
        gap = engine.protocol.backoff.gap(message, engine.rng)
        message.retransmit_at = now + gap
        plan = list(message.active_segments)
        if engine.bus is not None:
            from ..obs.events import KillStarted, Retransmit

            engine.bus.emit(KillStarted(
                now, message.uid, cause.value, backward, len(plan)
            ))
            engine.bus.emit(Retransmit(
                now, message.uid, message.attempts, gap, now + gap
            ))
        if backward:
            plan.reverse()
        message.kill_wavefront = plan
        engine.injecting.discard(message)
        engine.in_flight.discard(message)
        engine.abort_injection(message)
        engine.nodes[message.dst].receiver.drop(message.uid)
        self.dying.append(message)

    # ------------------------------------------------------------------
    # Wavefront advance (one segment per dying worm per cycle)
    # ------------------------------------------------------------------

    def advance(self, now: int) -> None:
        if not self.dying:
            return
        survivors = []
        for message in self.dying:
            plan = message.kill_wavefront
            if plan:
                segment = plan.pop(0)
                self._flush_segment(message, segment, now)
                self.engine.stats.on_kill_segment_flushed()
                self.engine.mark_progress(now)
            if plan:
                survivors.append(message)
            else:
                self._complete(message, now)
        self.dying = survivors

    def _flush_segment(
        self, message: "Message", buffer: "VCBuffer", now: int
    ) -> None:
        if buffer.owner is not message:
            # Already released through a racing normal tail pass; the
            # initiate() guard makes this unreachable, but stay safe.
            return
        router = buffer.router
        if buffer.routed and buffer.out_port is not None:
            # Release this worm's own output claim only when no
            # downstream segment remains behind it: either the claim
            # feeds an ejection channel (no buffer to protect) or the
            # header never actually left this buffer.  Otherwise the
            # claim must persist until the *downstream* segment is
            # flushed (its feeder-side release below), or a new worm
            # could be routed into a buffer still holding dying flits.
            out_channel = router.out_channels[buffer.out_port]
            head_still_here = any(f.is_head for f in buffer.fifo) or any(
                f.is_head for _, f in buffer.incoming
            )
            if out_channel.is_ejection or head_still_here:
                router.release_output_if(
                    buffer.out_port, buffer.out_vc, message
                )
        feeder = buffer.feeder
        if feeder is not None and not feeder.is_injection:
            # This buffer is now empty: the upstream claim feeding it is
            # safe to hand to a new worm.
            upstream = self.engine.routers[feeder.src_node]
            upstream.release_output_if(feeder.src_port, buffer.vc, message)
        dropped = buffer.flush_owner(now)
        if self.engine.checker is not None and dropped:
            self.engine.checker.on_flits_reclaimed(dropped)
        self.engine.route_pending.discard(buffer)

    def _complete(self, message: "Message", now: int) -> None:
        message.kill_wavefront = None
        engine = self.engine
        if engine.checker is not None:
            engine.checker.on_kill_complete(message, now)
        limit = engine.protocol.retry_limit
        if limit is not None and (message.kills + message.fkills) > limit:
            message.phase = MessagePhase.FAILED
            engine.nodes[message.src].gate.on_abandon(message)
            engine.live.discard(message.uid)
            engine.stats.counters["messages_failed"] += 1
            self._emit_completed(message, now, "abandoned")
            return
        message.phase = MessagePhase.QUEUED
        engine.nodes[message.src].queue.insert(0, message)
        self._emit_completed(message, now, "requeued")

    def _emit_completed(
        self, message: "Message", now: int, outcome: str
    ) -> None:
        if self.engine.bus is not None:
            from ..obs.events import KillCompleted

            self.engine.bus.emit(KillCompleted(now, message.uid, outcome))
