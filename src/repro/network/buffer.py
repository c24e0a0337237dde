"""Input virtual-channel buffer: the unit of wormhole resource ownership.

Every router input port owns ``num_vcs`` of these.  A worm acquires a
VCBuffer when its header is routed into it and holds it until the tail
passes (or a kill wavefront flushes it).  The buffer also records the
state the switch allocator needs: which (output port, output VC) the worm
holds at this router, and when a flit last advanced (for the path-wide
timeout ablation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .channel import Channel
    from .flit import Flit
    from .message import Message
    from .router import Router


class VCBuffer:
    """A FIFO flit buffer on one virtual channel of a router input port."""

    __slots__ = (
        "router",
        "port",
        "vc",
        "depth",
        "fifo",
        "incoming",
        "feeder",
        "owner",
        "out_port",
        "out_vc",
        "routed",
        "last_advance",
        "route_stall_since",
        "route_fail_key",
    )

    def __init__(self, router: "Router", port: int, vc: int, depth: int) -> None:
        if depth < 1:
            raise ValueError("buffer depth must be >= 1")
        self.router = router
        self.port = port
        self.vc = vc
        self.depth = depth
        self.fifo: List["Flit"] = []
        self.incoming: List[Tuple[int, "Flit"]] = []
        self.feeder: Optional["Channel"] = None
        self.owner: Optional["Message"] = None
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None
        self.routed = False
        self.last_advance = 0
        self.route_stall_since: Optional[int] = None
        # Fast engine: router stamp + fault epoch of the header's last
        # failed allocation (cleared with route_stall_since).
        self.route_fail_key: Optional[int] = None

    # ------------------------------------------------------------------
    # Flit movement
    # ------------------------------------------------------------------

    def stage(self, flit: "Flit", arrival: int) -> None:
        """Stage a flit that will become visible at cycle ``arrival``."""
        self.incoming.append((arrival, flit))

    def merge_incoming(self, now: int) -> List["Flit"]:
        """Move staged flits whose arrival time has come into the FIFO.

        Returns the flits that arrived this cycle (the engine uses this
        to attach worm segments and detect corrupted headers).
        """
        if not self.incoming:
            return []
        arrived = [f for (t, f) in self.incoming if t <= now]
        if not arrived:
            return []
        self.incoming = [(t, f) for (t, f) in self.incoming if t > now]
        self.fifo.extend(arrived)
        return arrived

    def head(self) -> Optional["Flit"]:
        """The flit available for forwarding this cycle, if any."""
        if self.fifo:
            return self.fifo[0]
        return None

    def pop(self, now: int) -> "Flit":
        """Remove and return the head flit, crediting the feeder."""
        flit = self.fifo.pop(0)
        self.last_advance = now
        if self.feeder is not None:
            self.feeder.return_credit(self.vc, now)
        return flit

    # ------------------------------------------------------------------
    # Worm ownership
    # ------------------------------------------------------------------

    def acquire(self, message: "Message", now: int = 0) -> None:
        """Bind this buffer to a worm (header has been routed into it).

        ``now`` seeds the local-progress clock used by the path-wide
        timeout ablation.
        """
        if self.owner is not None:
            raise RuntimeError(
                f"buffer {self!r} already owned by msg {self.owner.uid}"
            )
        self.owner = message
        self.routed = False
        self.out_port = None
        self.out_vc = None
        self.route_stall_since = None
        self.route_fail_key = None
        self.last_advance = now

    def release(self) -> None:
        """Unbind after the tail has been forwarded (or a flush)."""
        self.owner = None
        self.routed = False
        self.out_port = None
        self.out_vc = None
        self.route_stall_since = None
        self.route_fail_key = None

    def flush_owner(self, now: int) -> int:
        """Drop every flit of the owning worm and release the buffer.

        Used by kill wavefronts.  Credits for dropped flits are returned
        to the feeder so the upstream sender's view stays consistent.
        Returns the number of flits dropped.
        """
        dropped = len(self.fifo)
        if self.feeder is not None:
            for _ in range(dropped):
                self.feeder.return_credit(self.vc, now)
        self.fifo.clear()
        # In-flight flits headed here also die with the worm.
        stale = len(self.incoming)
        if stale:
            if self.feeder is not None:
                for _ in range(stale):
                    self.feeder.return_credit(self.vc, now)
            self.incoming.clear()
            dropped += stale
        self.release()
        return dropped

    @property
    def occupancy(self) -> int:
        """Flits visible plus in flight toward this buffer."""
        return len(self.fifo) + len(self.incoming)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        own = self.owner.uid if self.owner is not None else None
        return (
            f"VCBuffer(r={self.router.node_id}, port={self.port}, "
            f"vc={self.vc}, occ={self.occupancy}/{self.depth}, owner={own})"
        )
