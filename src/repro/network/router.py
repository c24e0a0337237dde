"""Wormhole router: input VC buffers, output ownership, switch state.

A router is mostly passive state; the engine drives the per-cycle phases.
It owns:

* ``in_buffers[port][vc]`` -- the input virtual-channel buffers (link
  ports first, then injection ports, in wiring order),
* ``out_channels[port]`` -- outgoing channels (link ports first, matching
  the topology's ``LinkSpec.port`` numbering, then ejection ports),
* ``out_owner[(port, vc)]`` -- which worm currently holds each output VC
  (wormhole channel ownership), and
* ``claims[(port, vc)]`` -- the input buffer through which the owning
  worm's flits flow, i.e. the switch-allocation requests.

Both dicts are written only by the mutators below, which keep two
change trackers for the fast engine: ``stamp`` counts the writes to
``out_owner`` (a header that failed to get an output VC at this stamp
fails again until it moves), and ``_order`` caches ``claims`` in
arbitration order -- one record per claim, carrying the objects switch
allocation reads -- until the next write to ``claims``.

Ownership of a link output VC is released when the worm's tail pops out
of the *downstream* input buffer (not when it leaves this router): the
downstream buffer may still hold flits of the old worm, and a new header
must not be routed into a non-empty buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from .buffer import VCBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .channel import Channel
    from .flit import Flit
    from .message import Message

#: one switch-allocation request: ``(port, vc, buffer, buffer.fifo,
#: out_channels[port], out_channels[port].credits)``.
ClaimRecord = Tuple[
    int, int, VCBuffer, "Deque[Flit]", "Channel", List[int]
]


class Router:
    """Per-node switching element."""

    def __init__(self, node_id: int, num_vcs: int) -> None:
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        self.node_id = node_id
        self.num_vcs = num_vcs
        self.in_buffers: List[List[VCBuffer]] = []
        self.out_channels: List["Channel"] = []
        self.eject_ports: List[int] = []
        self.num_link_in = 0
        self.num_link_out = 0
        self.out_owner: Dict[Tuple[int, int], "Message"] = {}
        self.claims: Dict[Tuple[int, int], VCBuffer] = {}
        #: bumped by every mutator that writes ``out_owner``.
        self.stamp = 0
        #: ``claims`` as sorted :data:`ClaimRecord` s, or None since the
        #: last write to ``claims``; rebuilt by :meth:`claim_order`.
        self._order: Optional[List[ClaimRecord]] = None
        self._rr: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Wiring (builder API)
    # ------------------------------------------------------------------

    def add_input_port(self, buffer_depth: int) -> int:
        """Create a new input port with one buffer per VC; returns index."""
        port = len(self.in_buffers)
        self.in_buffers.append(
            [VCBuffer(self, port, vc, buffer_depth) for vc in range(self.num_vcs)]
        )
        return port

    def add_output_channel(self, channel: "Channel") -> int:
        """Register an outgoing channel; returns its output-port index."""
        port = len(self.out_channels)
        self.out_channels.append(channel)
        channel.src_port = port
        if channel.is_ejection:
            self.eject_ports.append(port)
        return port

    # ------------------------------------------------------------------
    # Output ownership
    # ------------------------------------------------------------------

    def output_free(self, port: int, vc: int) -> bool:
        return (port, vc) not in self.out_owner

    def claim_output(
        self, port: int, vc: int, buffer: VCBuffer, message: "Message"
    ) -> None:
        key = (port, vc)
        if key in self.out_owner:
            raise RuntimeError(
                f"output {key} at router {self.node_id} already owned by "
                f"message {self.out_owner[key].uid}"
            )
        self.out_owner[key] = message
        self.claims[key] = buffer
        self.stamp += 1
        self._order = None
        buffer.routed = True
        buffer.out_port = port
        buffer.out_vc = vc

    def release_output(self, port: int, vc: int) -> None:
        """Drop ownership of an output VC (idempotent: kills may race
        the normal tail release)."""
        key = (port, vc)
        self.out_owner.pop(key, None)
        self.claims.pop(key, None)
        self.stamp += 1
        self._order = None

    def release_output_if(
        self, port: int, vc: int, message: "Message"
    ) -> None:
        """Release an output VC only if ``message`` still owns it.

        Kill wavefronts release claims segment by segment while new worms
        may already be claiming the freed resources; the ownership check
        prevents a flush from evicting a newcomer.
        """
        key = (port, vc)
        if self.out_owner.get(key) is message:
            del self.out_owner[key]
            self.claims.pop(key, None)
            self.stamp += 1
            self._order = None

    def retire_claim(self, port: int, vc: int) -> None:
        """Stop switching through an output whose tail has left this
        router, while keeping ownership until the downstream buffer
        drains (a new header must not enter a non-empty buffer)."""
        self.claims.pop((port, vc), None)
        self._order = None

    # ------------------------------------------------------------------
    # Switch arbitration helpers
    # ------------------------------------------------------------------

    def claim_order(self) -> List[ClaimRecord]:
        """One record per claim, ports ascending, VCs within.

        A record names the claim and the three objects arbitration
        reads for it, so the switch stage follows no attribute chain
        per claim.  ``fifo`` and ``credits`` are bound once, where
        their owners are constructed, and ``out_channels`` only grows,
        so a record stays true for as long as its claim stands.
        """
        order = self._order
        if order is None:
            out_channels = self.out_channels
            order = self._order = [
                (
                    port, vc, buffer, buffer.fifo,
                    out_channels[port], out_channels[port].credits,
                )
                for (port, vc), buffer in sorted(self.claims.items())
            ]
        return order

    def rotate(self, port: int, count: int) -> int:
        """Round-robin pointer for output ``port`` over ``count`` requests."""
        idx = self._rr.get(port, 0) % count
        self._rr[port] = idx + 1
        return idx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Router({self.node_id}, ports={len(self.in_buffers)}in/"
            f"{len(self.out_channels)}out, claims={len(self.claims)})"
        )
