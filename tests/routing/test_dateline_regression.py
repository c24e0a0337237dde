"""Regression tests for the dimension-entry dateline bug.

The VC class of a hop must be computed relative to the *hop's*
dimension: a header that wrapped in dimension 0 still starts dimension
1 on the low class.  The original implementation read the stored
dateline bit directly, putting wrapped-then-turned packets onto VC1 for
their whole second dimension and closing a VC1 dependency cycle -- a
genuine deadlock at sustained load (caught by
examples/recovery_family.py).
"""

import pytest

from repro import Message, SimConfig, run_simulation, torus
from repro.network.channel import Channel
from repro.routing.dor import DimensionOrder
from repro.routing.duato import Duato


def hop(routing, msg, dim, wrap):
    channel = Channel(0, 1, num_vcs=2)
    channel.dim = dim
    channel.is_wrap = wrap
    routing.on_header_hop(msg, channel)


class TestDatelineClass:
    def test_fresh_dimension_starts_low(self):
        routing = DimensionOrder(torus(4, 2))
        msg = Message(0, 5, 4)
        hop(routing, msg, dim=0, wrap=True)  # wrapped in dim 0
        assert msg.dateline_bit == 1
        # A dim-1 hop must still be classed low...
        assert routing.dateline_class(msg, hop_dim=1) == 0
        # ...while further dim-0 hops stay high.
        assert routing.dateline_class(msg, hop_dim=0) == 1

    def test_same_dimension_uses_stored_bit(self):
        routing = DimensionOrder(torus(4, 2))
        msg = Message(0, 5, 4)
        assert routing.dateline_class(msg, hop_dim=0) == 0
        hop(routing, msg, dim=0, wrap=True)
        assert routing.dateline_class(msg, hop_dim=0) == 1

    def test_candidate_vc_for_wrapped_then_turned_header(self):
        """The original failure shape: 13 -> 1 (dim-0 wrap) -> 5, now
        turning into dim 1.  The dim-1 hop must claim VC0."""
        topology = torus(4, 2)
        routing = DimensionOrder(topology)
        from repro import WormholeNetwork

        network = WormholeNetwork(topology, routing, num_vcs=2)
        msg = Message(topology.node_at((3, 1)), topology.node_at((1, 3)), 4)
        hop(routing, msg, dim=0, wrap=True)   # (3,1) -> (0,1)
        hop(routing, msg, dim=0, wrap=False)  # (0,1) -> (1,1)
        tiers = routing.candidates(
            network.routers[topology.node_at((1, 1))], msg
        )
        assert tiers[0][0].vc == 0

    def test_duato_escape_same_rule(self):
        topology = torus(4, 2)
        routing = Duato(topology)
        from repro import WormholeNetwork

        network = WormholeNetwork(topology, routing, num_vcs=3)
        msg = Message(topology.node_at((3, 1)), topology.node_at((1, 3)), 4)
        hop(routing, msg, dim=0, wrap=True)
        hop(routing, msg, dim=0, wrap=False)
        tiers = routing.candidates(
            network.routers[topology.node_at((1, 1))], msg
        )
        escape = tiers[1][0]
        assert escape.is_escape
        assert escape.vc == 0


class TestSustainedLoadRegression:
    @pytest.mark.parametrize("seed", [12, 3, 7])
    def test_dor_torus_sustained_saturation(self, seed):
        """The configuration that deadlocked before the fix."""
        config = SimConfig(
            routing="dor", num_vcs=2, radix=4, dims=2, load=0.3,
            message_length=8, warmup=150, measure=1200, drain=10000,
            seed=seed, watchdog=3000, order_preserving=False,
        )
        result = run_simulation(config)  # watchdog raises on a wedge
        assert result.drained
        assert result.report["undelivered"] == 0

    def test_duato_torus_sustained_saturation(self):
        config = SimConfig(
            routing="duato", radix=4, dims=2, load=0.4,
            message_length=8, warmup=150, measure=1200, drain=10000,
            seed=12, watchdog=3000, order_preserving=False,
        )
        result = run_simulation(config)
        assert result.drained
        assert result.report["undelivered"] == 0

    def test_dor_3d_torus(self):
        """Three dimensions exercise two dimension-entry boundaries."""
        config = SimConfig(
            routing="dor", num_vcs=2, radix=3, dims=3, load=0.3,
            message_length=6, warmup=100, measure=800, drain=8000,
            seed=5, watchdog=3000, order_preserving=False,
        )
        result = run_simulation(config)
        assert result.drained
        assert result.report["undelivered"] == 0
