"""Physical channels with credit-based flow control.

A channel moves at most one flit per cycle (its virtual channels
multiplex the same wires).  The sender holds one credit counter per VC,
initialised to the downstream buffer depth; a credit is consumed when a
flit is sent and returned (after the channel's reverse latency) when the
downstream buffer pops a flit.  This credit loop is the "tight coupling
between wormhole routers" that Compressionless Routing exploits: a
blocked header anywhere on the path starves the source of credits within
a bounded number of cycles.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .buffer import VCBuffer
    from .flit import Flit

_chan_uid = itertools.count()


class Channel:
    """A unidirectional physical channel between two network endpoints.

    The channel may be a router-to-router link, an injection channel
    (source interface to router), or an ejection channel (router to
    receiving interface).  ``sinks`` holds one VCBuffer per VC for link
    and injection channels; ejection channels instead deliver flits to a
    receiver via the engine (``sinks`` empty, ``is_ejection`` True).

    Topological metadata (``dim``, ``direction``, ``is_wrap``) is filled
    in by the topology builder and consulted by routing functions (e.g.
    the dateline rule for deadlock-free dimension-order routing in tori).
    """

    __slots__ = (
        "uid",
        "src_node",
        "dst_node",
        "src_port",
        "dst_port",
        "num_vcs",
        "latency",
        "credits",
        "_pending",
        "dim",
        "direction",
        "is_wrap",
        "is_ejection",
        "is_injection",
        "dead",
        "sinks",
        "flits_carried",
        "ledger",
    )

    def __init__(
        self,
        src_node: int,
        dst_node: int,
        num_vcs: int,
        latency: int = 1,
        is_ejection: bool = False,
        is_injection: bool = False,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("a channel needs at least one virtual channel")
        if latency < 1:
            raise ValueError("channel latency must be >= 1")
        self.uid = next(_chan_uid)
        self.src_node = src_node
        self.dst_node = dst_node
        # Port indices at each endpoint router; filled in by the builder.
        self.src_port = -1
        self.dst_port = -1
        self.num_vcs = num_vcs
        self.latency = latency
        self.credits: List[int] = [0] * num_vcs
        self._pending: List[Tuple[int, int]] = []  # (ready_cycle, vc)
        self.dim = -1
        self.direction = 0
        self.is_wrap = False
        self.is_ejection = is_ejection
        self.is_injection = is_injection
        self.dead = False
        self.sinks: List[Optional["VCBuffer"]] = [None] * num_vcs
        self.flits_carried = 0
        #: told the due cycle of every scheduled credit return: the fast
        #: engine's ``CreditLedger``, so it ticks only the channels with
        #: a credit maturing on a given cycle.  None: nobody is.
        self.ledger = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_sink(self, vc: int, buffer: "VCBuffer") -> None:
        """Connect VC ``vc`` to its downstream buffer and size credits."""
        self.sinks[vc] = buffer
        self.credits[vc] = buffer.depth
        buffer.feeder = self

    def set_eject_capacity(self, slots: int) -> None:
        """Size credits of an ejection channel (receiver staging slots)."""
        if not self.is_ejection:
            raise RuntimeError("set_eject_capacity on a non-ejection channel")
        for vc in range(self.num_vcs):
            self.credits[vc] = slots

    # ------------------------------------------------------------------
    # Credit flow
    # ------------------------------------------------------------------

    def can_send(self, vc: int) -> bool:
        """True if a flit may be launched on ``vc`` this cycle."""
        return not self.dead and self.credits[vc] > 0

    def return_credit(self, vc: int, now: int) -> None:
        """Schedule a credit to become available after reverse latency."""
        due = now + self.latency
        self._pending.append((due, vc))
        if self.ledger is not None:
            self.ledger.register(due, self)

    def pending_credits(self, vc: int) -> int:
        """Credits in flight back to the sender on ``vc`` (not yet due)."""
        return sum(1 for _, pending_vc in self._pending if pending_vc == vc)

    def tick(self, now: int) -> None:
        """Make due credits available (called at the start of each cycle)."""
        if not self._pending:
            return
        still_pending = []
        for ready, vc in self._pending:
            if ready <= now:
                self.credits[vc] += 1
            else:
                still_pending.append((ready, vc))
        self._pending = still_pending

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def send(self, vc: int, flit: "Flit", now: int) -> None:
        """Launch ``flit`` on ``vc``, spending one of its credits; it
        arrives after ``latency`` cycles.

        Ejection channels do not stage into a VCBuffer; the engine routes
        their flits to the node's receiver instead.
        """
        credits = self.credits
        if credits[vc] <= 0:
            raise RuntimeError(
                f"credit underflow on channel {self.uid} vc {vc}"
            )
        credits[vc] -= 1
        self.flits_carried += 1
        if not self.is_ejection:
            sink = self.sinks[vc]
            if sink is None:
                raise RuntimeError(
                    f"channel {self.uid} vc {vc} has no attached sink"
                )
            sink.stage(flit, now + self.latency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = (
            "ej" if self.is_ejection else "inj" if self.is_injection else "link"
        )
        return (
            f"Channel#{self.uid}({kind} {self.src_node}->{self.dst_node}, "
            f"vcs={self.num_vcs}, credits={self.credits})"
        )
