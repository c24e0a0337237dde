"""Minimal fully-adaptive routing: the routing relation CR uses.

Every productive link (any link on a minimal path) on any virtual
channel is admissible.  On its own this relation deadlocks -- channel
dependency cycles form freely, which is exactly why prior work paid for
virtual-channel escape structure.  Compressionless Routing runs this
relation *unrestricted* and recovers from the resulting potential
deadlocks by source timeout, kill, and retransmission.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import RoutingFunction, Tiers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message
    from ..network.router import Router


class MinimalAdaptive(RoutingFunction):
    """All minimal links, all virtual channels, one tier."""

    name = "minimal_adaptive"

    def min_vcs(self) -> int:
        return 1

    def candidates(self, router: "Router", message: "Message") -> Tiers:
        ports = tuple([
            link.port
            for link in self.topology.productive_links(
                router.node_id, message.dst
            )
        ])
        key = (router.num_vcs, ports)
        tiers = self._tiers.get(key)
        if tiers is None:
            by_port = self._port_candidates(router.num_vcs)
            tiers = self._tiers[key] = (
                tuple([cand for port in ports for cand in by_port[port]]),
            )
        return tiers


class NaiveAdaptive(MinimalAdaptive):
    """The same relation, named for use *without* CR recovery.

    Used by the deadlock-demonstration example and tests: running this
    router with plain wormhole injection (no timeout/kill) wedges the
    network, which is the failure mode CR exists to break.
    """

    name = "naive_adaptive"
