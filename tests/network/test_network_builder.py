"""WormholeNetwork builder: wiring invariants."""

import pytest

from repro import (
    FirstFree,
    MinimalAdaptive,
    DimensionOrder,
    WormholeNetwork,
    torus,
)
from repro.topology.torus import KAryNCube


def build(topology=None, **kwargs):
    topology = topology or torus(4, 2)
    defaults = dict(num_vcs=1, buffer_depth=2)
    defaults.update(kwargs)
    return WormholeNetwork(
        topology, MinimalAdaptive(topology), FirstFree(), **defaults
    )


class TestLinkWiring:
    def test_output_ports_match_topology_numbering(self):
        network = build()
        topology = network.topology
        for node in range(topology.num_nodes):
            router = network.routers[node]
            for spec in topology.links(node):
                channel = router.out_channels[spec.port]
                assert channel.dst_node == spec.dst
                assert channel.dim == spec.dim
                assert channel.direction == spec.direction
                assert channel.is_wrap == spec.is_wrap

    def test_every_link_channel_has_sinks(self):
        network = build(num_vcs=2)
        for channel in network.link_channels:
            for vc in range(2):
                sink = channel.sinks[vc]
                assert sink is not None
                assert sink.feeder is channel
                assert sink.router.node_id == channel.dst_node

    def test_channel_count_torus(self):
        network = build()
        # 4-ary 2-torus: 4 unidirectional links per node.
        assert len(network.link_channels) == 16 * 4

    def test_channel_count_mesh_edges(self):
        network = build(topology=KAryNCube(3, 2, wrap=False))
        # 3x3 mesh: 12 bidirectional edges = 24 unidirectional channels.
        assert len(network.link_channels) == 24

    def test_find_link(self):
        network = build()
        channel = network.find_link(0, 1)
        assert channel.src_node == 0 and channel.dst_node == 1
        with pytest.raises(KeyError):
            network.find_link(0, 10)


class TestInterfaceWiring:
    def test_interface_counts(self):
        network = build(num_inject=3, num_sink=2)
        for node in range(16):
            assert len(network.injection_channels[node]) == 3
            assert len(network.ejection_channels[node]) == 2
            assert len(network.routers[node].eject_ports) == 2

    def test_eject_ports_numbered_after_links(self):
        network = build(num_sink=2)
        router = network.routers[0]
        assert router.eject_ports == [4, 5]

    def test_eject_credits_sized(self):
        network = build(eject_slots=3)
        for node in range(16):
            for channel in network.ejection_channels[node]:
                assert channel.credits[0] == 3

    def test_injection_buffers_attached(self):
        network = build(num_vcs=2, num_inject=2)
        for node in range(16):
            for channel in network.injection_channels[node]:
                assert channel.is_injection
                for vc in range(2):
                    assert channel.sinks[vc].router.node_id == node

    def test_total_buffer_flits(self):
        network = build(num_vcs=2, buffer_depth=3)
        # per node: (4 link in-ports + 1 injection) x 2 VCs x depth 3
        total = sum(buf.depth for router in network.routers
                    for port in router.in_buffers for buf in port)
        assert total == 16 * 5 * 2 * 3


class TestValidation:
    def test_vcs_below_routing_minimum(self):
        topology = torus(4, 2)
        with pytest.raises(ValueError, match="VCs"):
            WormholeNetwork(
                topology, DimensionOrder(topology), FirstFree(), num_vcs=1
            )

    def test_bad_buffer_depth(self):
        with pytest.raises(ValueError, match="buffer_depth"):
            build(buffer_depth=0)

    def test_need_interfaces(self):
        with pytest.raises(ValueError, match="injection"):
            build(num_inject=0)
