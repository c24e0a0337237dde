"""Trace helpers on non-2D layouts (fallback paths)."""

from repro import (
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    occupancy_snapshot,
    torus,
)
from repro.topology.hypercube import Hypercube
from repro.verify.reference import ReferenceEngine


def engine_for(topology):
    network = WormholeNetwork(
        topology, MinimalAdaptive(topology), num_vcs=1
    )
    return ReferenceEngine(
        network, protocol=ProtocolConfig(mode=ProtocolMode.PLAIN), seed=0
    )


class TestSnapshotFallbacks:
    def test_1d_ring_listing(self):
        engine = engine_for(torus(6, 1))
        engine.admit(Message(0, 3, 20, seq=0))
        for _ in range(6):
            engine.step()
        text = occupancy_snapshot(engine)
        assert text.startswith("occupancy:")
        assert any(ch.isdigit() for ch in text)

    def test_1d_empty_listing(self):
        engine = engine_for(torus(6, 1))
        assert occupancy_snapshot(engine) == "occupancy: (empty)"

    def test_3d_listing(self):
        engine = engine_for(torus(3, 3))
        engine.admit(Message(0, 13, 12, seq=0))
        for _ in range(4):
            engine.step()
        text = occupancy_snapshot(engine)
        assert text.startswith("occupancy:")

    def test_hypercube_coords_are_bits_not_grid(self):
        engine = engine_for(Hypercube(3))
        engine.admit(Message(0, 7, 8, seq=0))
        for _ in range(3):
            engine.step()
        text = occupancy_snapshot(engine)
        assert text.startswith("occupancy:")
