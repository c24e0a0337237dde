"""Message: the unit of communication handed to the network by a node.

A message is injected as a worm of flits.  Under Compressionless Routing a
message passes through a small state machine (see
:class:`repro.core.protocol.MessagePhase`): it may be killed and
retransmitted several times before it *commits* (tail leaves the source)
and is finally *delivered* (tail consumed at the destination).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional

from ..core.protocol import MessagePhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .buffer import VCBuffer

_uid_counter = itertools.count()


def _next_uid() -> int:
    return next(_uid_counter)


def reset_uid_counter() -> None:
    """Restart message uid numbering (used by tests for determinism)."""
    global _uid_counter
    _uid_counter = itertools.count()


class Message:
    """A point-to-point message.

    Attributes
    ----------
    uid:
        Globally unique integer identity (stable across retransmissions).
    src, dst:
        Source and destination node ids.
    payload_length:
        Number of payload flits, header included (the paper's "message
        length").
    seq:
        Per (src, dst) sequence number, used to check the
        order-preservation guarantee.
    wire_length:
        Total flits of the current transmission attempt (payload plus
        padding); set by the injector at the start of each attempt.
    phase:
        Current protocol phase.
    segments:
        Ordered list of the input-VC buffers the current worm has been
        routed into, source side first.  ``tail_seg`` is the index of the
        first segment the tail has not yet passed; the worm therefore
        occupies ``segments[tail_seg:]``.
    """

    __slots__ = (
        "uid",
        "src",
        "dst",
        "payload_length",
        "seq",
        "wire_length",
        "phase",
        "segments",
        "tail_seg",
        "attempts",
        "kills",
        "fkills",
        "pad_flits_sent",
        "created_at",
        "first_inject_at",
        "inject_start_at",
        "committed_at",
        "delivered_at",
        "header_consumed_at",
        "flits_injected",
        "dateline_bit",
        "dor_dim",
        "lane",
        "escape_hops",
        "used_escape",
        "misroute_budget",
        "misroutes_used",
        "measured",
        "kill_wavefront",
        "kill_reason",
        "kill_history",
        "retransmit_at",
        "app",
        "stream_start_at",
        "probe_tried",
        "probe_wait",
        "probe_backtracks",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        payload_length: int,
        created_at: int = 0,
        seq: int = 0,
    ) -> None:
        if payload_length < 1:
            raise ValueError("payload_length must be >= 1 (the header)")
        if src == dst:
            raise ValueError("source and destination must differ")
        self.uid = _next_uid()
        self.src = src
        self.dst = dst
        self.payload_length = payload_length
        self.seq = seq
        self.wire_length = payload_length
        self.phase = MessagePhase.QUEUED
        self.segments: List["VCBuffer"] = []
        self.tail_seg = 0
        self.attempts = 0
        self.kills = 0
        self.fkills = 0
        self.pad_flits_sent = 0
        self.created_at = created_at
        self.first_inject_at: Optional[int] = None
        self.inject_start_at: Optional[int] = None
        self.committed_at: Optional[int] = None
        self.delivered_at: Optional[int] = None
        self.header_consumed_at: Optional[int] = None
        self.flits_injected = 0
        # Header routing state (mutated as the header advances).
        self.dateline_bit = 0
        self.dor_dim = 0
        self.lane = 0
        # Duato instrumentation: escape-channel usage (PDS estimation).
        self.escape_hops = 0
        self.used_escape = False
        # Misrouting (non-minimal fault-tolerant routing) accounting.
        self.misroute_budget = 0
        self.misroutes_used = 0
        # Statistics bookkeeping.
        self.measured = True
        # Kill bookkeeping.  ``kill_history`` records every kill across
        # attempts as (cycle, cause) and survives begin_attempt resets.
        self.kill_wavefront: Optional[list] = None
        self.kill_reason: Optional[str] = None
        self.kill_history: List[tuple] = []
        self.retransmit_at: Optional[int] = None
        # Application-layer tag (used by the software-retry baseline).
        self.app: Optional[object] = None
        # Pipelined-circuit-switching probe state (PCS baseline).
        self.stream_start_at: Optional[int] = None
        self.probe_tried: dict = {}
        self.probe_wait = 0
        self.probe_backtracks = 0

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------

    def begin_attempt(self, wire_length: int, now: int) -> None:
        """Reset per-attempt state at the start of a transmission."""
        self.wire_length = wire_length
        self.attempts += 1
        self.flits_injected = 0
        self.segments = []
        self.tail_seg = 0
        self.dateline_bit = 0
        self.dor_dim = 0
        self.kill_wavefront = None
        self.kill_reason = None
        self.misroutes_used = 0
        self.phase = MessagePhase.INJECTING
        if self.first_inject_at is None:
            self.first_inject_at = now
        self.inject_start_at = now

    @property
    def committed(self) -> bool:
        """True once the tail has left the source (no longer killable)."""
        return self.phase in (MessagePhase.COMMITTED, MessagePhase.DELIVERED)

    @property
    def delivered(self) -> bool:
        return self.phase is MessagePhase.DELIVERED

    @property
    def active_segments(self) -> List["VCBuffer"]:
        """Buffers the worm currently occupies (source side first)."""
        return self.segments[self.tail_seg:]

    def total_latency(self) -> Optional[int]:
        """Creation-to-delivery latency, or None if undelivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    def network_latency(self) -> Optional[int]:
        """First-injection-to-delivery latency, or None if undelivered."""
        if self.delivered_at is None or self.first_inject_at is None:
            return None
        return self.delivered_at - self.first_inject_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(uid={self.uid}, {self.src}->{self.dst}, "
            f"len={self.payload_length}, phase={self.phase.value})"
        )
