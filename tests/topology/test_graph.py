"""Unit tests for the arbitrary-graph topology."""

import pytest

from repro.topology.graph import GraphTopology


def ring(n):
    return GraphTopology.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestConstruction:
    def test_from_edges_bidirectional(self):
        topo = ring(6)
        assert topo.num_nodes == 6
        assert len(topo.links(0)) == 2

    def test_from_edges_directed(self):
        topo = GraphTopology.from_edges(
            3, [(0, 1), (1, 2), (2, 0)], bidirectional=False
        )
        assert len(topo.links(0)) == 1
        assert topo.min_distance(0, 2) == 2
        assert topo.min_distance(2, 0) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            GraphTopology.from_edges(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphTopology({0: [0, 1], 1: [0]})

    def test_sparse_numbering_rejected(self):
        with pytest.raises(ValueError, match="densely"):
            GraphTopology({0: [2], 2: [0]})

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            GraphTopology({0: [5], 1: [0]})


class TestRoutingQueries:
    def test_bfs_distances_on_ring(self):
        topo = ring(8)
        assert topo.min_distance(0, 4) == 4
        assert topo.min_distance(0, 7) == 1

    def test_productive_links_reduce_distance(self):
        topo = ring(7)
        for src in range(7):
            for dst in range(7):
                if src == dst:
                    continue
                d = topo.min_distance(src, dst)
                for link in topo.productive_links(src, dst):
                    assert topo.min_distance(link.dst, dst) == d - 1

    def test_halfway_ring_has_two_choices(self):
        topo = ring(8)
        assert len(topo.productive_links(0, 4)) == 2

    def test_dor_link_deterministic(self):
        topo = ring(8)
        first = topo.dor_link(0, 3)
        assert first == topo.dor_link(0, 3)

    def test_dor_at_destination_raises(self):
        with pytest.raises(ValueError):
            ring(5).dor_link(2, 2)
