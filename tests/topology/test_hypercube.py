"""Unit tests for the hypercube topology."""

import pytest

from repro.topology.hypercube import Hypercube


class TestHypercube:
    def test_node_count(self):
        assert Hypercube(4).num_nodes == 16

    def test_degree_equals_dims(self):
        topo = Hypercube(4)
        for node in range(topo.num_nodes):
            assert len(topo.links(node)) == 4

    def test_distance_is_hamming(self):
        topo = Hypercube(4)
        assert topo.min_distance(0b0000, 0b1111) == 4
        assert topo.min_distance(0b1010, 0b1010) == 0
        assert topo.min_distance(0b1010, 0b1000) == 1

    def test_coords_roundtrip(self):
        topo = Hypercube(3)
        for node in range(topo.num_nodes):
            assert topo.node_at(topo.coords(node)) == node

    def test_coords_are_bits(self):
        topo = Hypercube(3)
        assert topo.coords(0b101) == (1, 0, 1)

    def test_productive_links_flip_differing_bits(self):
        topo = Hypercube(4)
        links = topo.productive_links(0b0000, 0b0101)
        dims = sorted(link.dim for link in links)
        assert dims == [0, 2]

    def test_dor_lowest_bit_first(self):
        topo = Hypercube(4)
        link = topo.dor_link(0b0000, 0b1100)
        assert link.dim == 2

    def test_dor_at_destination_raises(self):
        with pytest.raises(ValueError):
            Hypercube(3).dor_link(5, 5)

    def test_dor_walk_is_minimal(self):
        topo = Hypercube(5)
        src, dst = 0b00000, 0b10111
        node, hops = src, 0
        while node != dst:
            node = topo.dor_link(node, dst).dst
            hops += 1
        assert hops == topo.min_distance(src, dst)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Hypercube(0)

    def test_bad_coordinate_value(self):
        with pytest.raises(ValueError):
            Hypercube(3).node_at((0, 2, 0))

    @pytest.mark.parametrize(
        "offset", [-1, 0, 7, 91], ids=["-1", "n", "n+7", "99"]
    )
    def test_out_of_range_node_is_a_value_error_everywhere(self, offset):
        # productive_links(0, 99) and dor_link(0, 99) used to answer
        # for a node that does not exist; (99, 0) was an IndexError and
        # (-1, 0) the last node's links.
        topo = Hypercube(3)
        bad = offset if offset < 0 else topo.num_nodes + offset
        for lookup in (topo.coords, topo.links):
            with pytest.raises(ValueError, match=f"node {bad} out of range"):
                lookup(bad)
        for lookup in (
            topo.min_distance, topo.productive_links, topo.dor_link
        ):
            for args in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(
                    ValueError, match=f"node {bad} out of range"
                ):
                    lookup(*args)
