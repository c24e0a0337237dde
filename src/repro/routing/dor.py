"""Dimension-order (deterministic) routing -- the paper's baseline.

On a torus, DOR needs two virtual channels per link for deadlock freedom
(the dateline scheme of the Torus Routing Chip [Dally & Seitz 86]): a
message uses the low VC of its lane until it crosses the wraparound link
of the dimension it is currently traversing, then the high VC.  Any
additional virtual channels are organised as *lanes* [Dally 92]; a
message picks a lane at injection and stays in it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .base import RoutingFunction, Tiers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.channel import Channel
    from ..network.message import Message
    from ..network.router import Router
    from ..topology.base import Topology


class DimensionOrder(RoutingFunction):
    """Deterministic lowest-dimension-first routing with dateline VCs.

    ``dateline=False`` drops the dateline virtual channels: the routing
    relation is then *not* deadlock-free on a torus by itself, which is
    exactly the configuration the CR-over-deterministic-routing ablation
    wants -- CR's recovery supplies the deadlock freedom, isolating the
    value of recovery from the value of adaptivity.
    """

    name = "dor"

    def __init__(self, topology: "Topology", dateline: bool = True) -> None:
        super().__init__(topology)
        self.dateline = dateline
        self.vc_classes = (
            2 if dateline and getattr(topology, "wrap", False) else 1
        )

    def min_vcs(self) -> int:
        return self.vc_classes

    def num_lanes(self, num_vcs: int) -> int:
        lanes = num_vcs // self.vc_classes
        if lanes < 1:
            raise ValueError(
                f"{self.topology.name} DOR needs >= {self.vc_classes} VCs, "
                f"got {num_vcs}"
            )
        return lanes

    def assign_lane(self, message: "Message", rng: random.Random) -> None:
        # The lane count is bounded by the network's VC count; the router
        # reduces the lane modulo the available lanes in `candidates`, so
        # draw from a wide range here to stay configuration-independent.
        message.lane = rng.getrandbits(30)

    def candidates(self, router: "Router", message: "Message") -> Tiers:
        link = self.topology.dor_link(router.node_id, message.dst)
        lane = message.lane % self.num_lanes(router.num_vcs)
        vc = lane * self.vc_classes + (
            self.dateline_class(message, link.dim)
            if self.vc_classes == 2
            else 0
        )
        key = (link.port, vc)
        tiers = self._tiers.get(key)
        if tiers is None:
            tiers = self._tiers[key] = (
                (self._port_candidates(router.num_vcs)[link.port][vc],),
            )
        return tiers

    def dateline_class(self, message: "Message", hop_dim: int) -> int:
        """Dateline VC class for a hop in ``hop_dim``.

        The stored bit belongs to the dimension the header has been
        travelling in; a hop that *enters* a new dimension starts that
        dimension's ring afresh on the low class.  (Computing this from
        the stored bit directly would carry a dim-0 wrap into dim 1's
        first hop and close a VC1 dependency cycle -- a real deadlock,
        caught by the recovery-family example.)
        """
        if hop_dim != message.dor_dim:
            return 0
        return message.dateline_bit

    def on_header_hop(self, message: "Message", channel: "Channel") -> None:
        if channel.dim != message.dor_dim:
            message.dor_dim = channel.dim
            message.dateline_bit = 0
        if channel.is_wrap:
            message.dateline_bit = 1
