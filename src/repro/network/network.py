"""Network assembly: routers, link channels, injection/ejection wiring.

The builder instantiates one router per topology node, wires a link
channel per topology edge (output-port numbering matches the topology's
``LinkSpec.port``), and then attaches the node interfaces: ``num_inject``
injection channels (each feeding its own input port on the router) and
``num_sink`` ejection channels -- the paper's "source and sink channels",
swept in Fig. 14(e,f).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from .channel import Channel
from .router import Router

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..routing.base import RoutingFunction
    from ..topology.base import Topology


class WormholeNetwork:
    """Routers plus channels for a topology; no protocol state."""

    def __init__(
        self,
        topology: "Topology",
        routing: "RoutingFunction",
        num_vcs: int = 1,
        buffer_depth: int = 2,
        channel_latency: int = 1,
        num_inject: int = 1,
        num_sink: int = 1,
        eject_slots: int = 2,
    ) -> None:
        if num_vcs < routing.min_vcs():
            raise ValueError(
                f"{routing.name} routing needs >= {routing.min_vcs()} VCs, "
                f"got {num_vcs}"
            )
        if buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if num_inject < 1 or num_sink < 1:
            raise ValueError("need at least one injection and one sink channel")
        self.topology = topology
        self.routing = routing
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.channel_latency = channel_latency
        self.num_inject = num_inject
        self.num_sink = num_sink
        self.eject_slots = eject_slots

        n = topology.num_nodes
        self.routers: List[Router] = [Router(i, num_vcs) for i in range(n)]
        self.link_channels: List[Channel] = []
        self.injection_channels: Dict[int, List[Channel]] = {}
        self.ejection_channels: Dict[int, List[Channel]] = {}

        self._wire_links()
        self._wire_interfaces()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _wire_links(self) -> None:
        latency = self.channel_latency
        for node in range(self.topology.num_nodes):
            router = self.routers[node]
            for spec in self.topology.links(node):
                channel = Channel(node, spec.dst, self.num_vcs, latency)
                channel.dim = spec.dim
                channel.direction = spec.direction
                channel.is_wrap = spec.is_wrap
                port = router.add_output_channel(channel)
                if port != spec.port:
                    raise RuntimeError(
                        f"output port mismatch at node {node}: "
                        f"{port} != {spec.port}"
                    )
                self.link_channels.append(channel)
        # Input ports are created in a second pass so that every router's
        # link outputs are registered first (ejection ports come after).
        for channel in self.link_channels:
            dst_router = self.routers[channel.dst_node]
            in_port = dst_router.add_input_port(self.buffer_depth)
            channel.dst_port = in_port
            for vc in range(self.num_vcs):
                channel.attach_sink(vc, dst_router.in_buffers[in_port][vc])
        for router in self.routers:
            router.num_link_in = len(router.in_buffers)
            router.num_link_out = len(router.out_channels)

    def _wire_interfaces(self) -> None:
        latency = self.channel_latency
        for node in range(self.topology.num_nodes):
            router = self.routers[node]
            ejectors = []
            for _ in range(self.num_sink):
                channel = Channel(node, node, 1, latency, is_ejection=True)
                router.add_output_channel(channel)
                channel.set_eject_capacity(self.eject_slots)
                ejectors.append(channel)
            self.ejection_channels[node] = ejectors
            injectors = []
            for _ in range(self.num_inject):
                channel = Channel(
                    node, node, self.num_vcs, latency, is_injection=True
                )
                in_port = router.add_input_port(self.buffer_depth)
                channel.dst_port = in_port
                for vc in range(self.num_vcs):
                    channel.attach_sink(vc, router.in_buffers[in_port][vc])
                injectors.append(channel)
            self.injection_channels[node] = injectors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def all_channels(self) -> List[Channel]:
        out = list(self.link_channels)
        for node in range(self.topology.num_nodes):
            out.extend(self.ejection_channels[node])
            out.extend(self.injection_channels[node])
        return out

    def find_link(self, src: int, dst: int) -> Channel:
        """The link channel from ``src`` to ``dst`` (for fault injection)."""
        for channel in self.link_channels:
            if channel.src_node == src and channel.dst_node == dst:
                return channel
        raise KeyError(f"no link {src}->{dst} in {self.topology.name}")

