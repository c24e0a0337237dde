"""Minimal-adaptive, Duato, and turn-model routing functions."""

import random

import pytest

from repro import (
    Duato,
    Message,
    MinimalAdaptive,
    NegativeFirst,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.network.router import Router
from repro.topology.torus import KAryNCube
from repro.verify.reference import ReferenceEngine


def candidates_at(routing, topology, num_vcs, node, dst):
    network = WormholeNetwork(
        topology, routing, num_vcs=num_vcs
    )
    msg = Message(node, dst, 4)
    return routing.candidates(network.routers[node], msg)


class TestMinimalAdaptive:
    def test_single_tier_all_productive_all_vcs(self):
        topology = torus(4, 2)
        routing = MinimalAdaptive(topology)
        tiers = candidates_at(routing, topology, 2, 0,
                              topology.node_at((1, 1)))
        assert len(tiers) == 1
        ports = {c.port for c in tiers[0]}
        productive = {
            l.port for l in topology.productive_links(
                0, topology.node_at((1, 1)))
        }
        assert ports == productive
        assert {c.vc for c in tiers[0]} == {0, 1}
        assert not any(c.is_escape for c in tiers[0])

    def test_min_vcs_is_one(self):
        assert MinimalAdaptive(torus(4, 2)).min_vcs() == 1


class TestDuato:
    def test_min_vcs(self):
        assert Duato(torus(4, 2)).min_vcs() == 3
        assert Duato(KAryNCube(4, 2, wrap=False)).min_vcs() == 2

    def test_tiers_split_adaptive_and_escape(self):
        topology = torus(4, 2)
        routing = Duato(topology)
        tiers = candidates_at(routing, topology, 3, 0,
                              topology.node_at((2, 2)))
        assert len(tiers) == 2
        adaptive, escape = tiers
        assert all(c.vc >= 2 for c in adaptive)
        assert all(not c.is_escape for c in adaptive)
        assert len(escape) == 1
        assert escape[0].is_escape
        assert escape[0].vc in (0, 1)

    def test_escape_follows_dor(self):
        topology = torus(4, 2)
        routing = Duato(topology)
        dst = topology.node_at((2, 2))
        tiers = candidates_at(routing, topology, 3, 0, dst)
        assert tiers[1][0].port == topology.dor_link(0, dst).port

    def test_too_few_vcs_raises(self):
        topology = torus(4, 2)
        routing = Duato(topology)
        router = Router(0, num_vcs=2)
        with pytest.raises(ValueError, match="VCs"):
            routing.candidates(router, Message(0, 5, 4))

    def test_saturated_duato_drains_without_kills(self):
        topology = torus(4, 2)
        routing = Duato(topology)
        network = WormholeNetwork(
            topology, routing, num_vcs=3
        )
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.PLAIN),
            seed=9,
            watchdog=5000,
        )
        rng = random.Random(1)
        messages = []
        for src in range(topology.num_nodes):
            for _ in range(4):
                dst = rng.randrange(topology.num_nodes)
                if dst != src:
                    msg = Message(src, dst, 12, seq=engine.next_seq(src, dst))
                    engine.admit(msg)
                    messages.append(msg)
        assert engine.run_until_drained(30000)
        assert all(m.delivered for m in messages)

    def test_escape_usage_is_counted(self):
        topology = torus(4, 2)
        routing = Duato(topology)
        network = WormholeNetwork(topology, routing, num_vcs=3)
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.PLAIN),
            seed=2,
            watchdog=5000,
        )
        rng = random.Random(3)
        for src in range(topology.num_nodes):
            for _ in range(6):
                dst = rng.randrange(topology.num_nodes)
                if dst != src:
                    engine.admit(
                        Message(src, dst, 16, seq=engine.next_seq(src, dst))
                    )
        engine.run_until_drained(40000)
        # Under this much pressure some headers must take the escape path.
        assert engine.stats.counters["escape_grants"] > 0


class TestNegativeFirst:
    def test_rejects_torus(self):
        with pytest.raises(ValueError, match="mesh"):
            NegativeFirst(torus(4, 2))

    def test_negative_hops_offered_first(self):
        topology = KAryNCube(4, 2, wrap=False)
        routing = NegativeFirst(topology)
        src = topology.node_at((2, 1))
        dst = topology.node_at((1, 3))  # needs -1 in dim0, +2 in dim1
        tiers = candidates_at(routing, topology, 1, src, dst)
        assert len(tiers) == 1
        directions = set()
        for cand in tiers[0]:
            link = topology.links(src)[cand.port]
            directions.add(link.direction)
        assert directions == {-1}

    def test_positive_phase_fully_adaptive(self):
        topology = KAryNCube(4, 2, wrap=False)
        routing = NegativeFirst(topology)
        src = topology.node_at((0, 0))
        dst = topology.node_at((2, 2))
        tiers = candidates_at(routing, topology, 1, src, dst)
        dims = set()
        for cand in tiers[0]:
            link = topology.links(src)[cand.port]
            assert link.direction == 1
            dims.add(link.dim)
        assert dims == {0, 1}

    def test_saturated_mesh_drains(self):
        topology = KAryNCube(4, 2, wrap=False)
        routing = NegativeFirst(topology)
        network = WormholeNetwork(topology, routing, num_vcs=1)
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.PLAIN),
            seed=4,
            watchdog=5000,
        )
        rng = random.Random(8)
        messages = []
        for src in range(topology.num_nodes):
            for _ in range(3):
                dst = rng.randrange(topology.num_nodes)
                if dst != src:
                    msg = Message(src, dst, 10, seq=engine.next_seq(src, dst))
                    engine.admit(msg)
                    messages.append(msg)
        assert engine.run_until_drained(30000)
        assert all(m.delivered for m in messages)
