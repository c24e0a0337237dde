"""Unit tests for k-ary n-cube topologies (torus and mesh)."""

import pytest

from repro.topology.torus import KAryNCube, mesh, torus


class TestConstruction:
    def test_node_count(self):
        assert torus(4, 2).num_nodes == 16
        assert torus(8, 2).num_nodes == 64
        assert mesh(3, 3).num_nodes == 27

    def test_names(self):
        assert torus(8, 2).name == "8-ary 2-torus"
        assert mesh(4, 3).name == "4-ary 3-mesh"

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            KAryNCube(1, 2)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            KAryNCube(4, 0)

    def test_degenerate_2ary_torus_rejected(self):
        with pytest.raises(ValueError):
            KAryNCube(2, 3, wrap=True)

    def test_2ary_mesh_allowed(self):
        topo = mesh(2, 3)
        assert topo.num_nodes == 8


class TestCoords:
    def test_roundtrip_all_nodes(self):
        topo = torus(4, 3)
        for node in range(topo.num_nodes):
            assert topo.node_at(topo.coords(node)) == node

    def test_row_major_order(self):
        topo = torus(4, 2)
        assert topo.coords(0) == (0, 0)
        assert topo.coords(1) == (0, 1)
        assert topo.coords(4) == (1, 0)

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            torus(4, 2).coords(16)

    def test_bad_coordinate(self):
        with pytest.raises(ValueError):
            torus(4, 2).node_at((4, 0))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            torus(4, 2).node_at((1, 2, 3))


class TestLinks:
    def test_torus_degree_constant(self):
        topo = torus(4, 2)
        for node in range(topo.num_nodes):
            assert len(topo.links(node)) == 4

    def test_mesh_corner_degree(self):
        topo = mesh(4, 2)
        corner = topo.node_at((0, 0))
        assert len(topo.links(corner)) == 2

    def test_mesh_interior_degree(self):
        topo = mesh(4, 2)
        interior = topo.node_at((1, 1))
        assert len(topo.links(interior)) == 4

    def test_ports_densely_numbered(self):
        topo = mesh(4, 2)
        for node in range(topo.num_nodes):
            ports = [link.port for link in topo.links(node)]
            assert ports == list(range(len(ports)))

    def test_wrap_links_marked(self):
        topo = torus(4, 2)
        edge = topo.node_at((3, 3))
        wraps = [link for link in topo.links(edge) if link.is_wrap]
        assert len(wraps) == 2
        assert all(link.direction == 1 for link in wraps)

    def test_mesh_has_no_wrap_links(self):
        topo = mesh(4, 2)
        for node in range(topo.num_nodes):
            assert not any(link.is_wrap for link in topo.links(node))

    def test_links_are_symmetric(self):
        topo = torus(4, 2)
        for node in range(topo.num_nodes):
            for link in topo.links(node):
                back = [l for l in topo.links(link.dst) if l.dst == node]
                assert back, f"no reverse link for {node}->{link.dst}"


class TestDistance:
    def test_torus_wrap_shortcut(self):
        topo = torus(8, 2)
        a = topo.node_at((0, 0))
        b = topo.node_at((0, 7))
        assert topo.min_distance(a, b) == 1

    def test_mesh_no_shortcut(self):
        topo = mesh(8, 2)
        a = topo.node_at((0, 0))
        b = topo.node_at((0, 7))
        assert topo.min_distance(a, b) == 7

    def test_symmetric(self):
        topo = torus(5, 2)
        for a in range(0, topo.num_nodes, 3):
            for b in range(0, topo.num_nodes, 4):
                assert topo.min_distance(a, b) == topo.min_distance(b, a)

    def test_average_min_distance_torus(self):
        # k-ary 1-torus with k=4: distances 1,2,1 -> mean 4/3.
        topo = torus(4, 1)
        assert topo.average_min_distance() == pytest.approx(4 / 3)


class TestProductiveLinks:
    def test_reduce_distance(self):
        topo = torus(5, 2)
        for src in range(0, topo.num_nodes, 2):
            for dst in range(1, topo.num_nodes, 3):
                if src == dst:
                    continue
                d = topo.min_distance(src, dst)
                for link in topo.productive_links(src, dst):
                    assert topo.min_distance(link.dst, dst) == d - 1

    def test_empty_at_destination(self):
        topo = torus(4, 2)
        assert topo.productive_links(5, 5) == []

    def test_halfway_both_directions(self):
        topo = torus(4, 1)
        links = topo.productive_links(0, 2)  # distance exactly k/2
        directions = sorted(link.direction for link in links)
        assert directions == [-1, 1]

    def test_mesh_single_direction(self):
        topo = mesh(4, 2)
        a = topo.node_at((0, 0))
        b = topo.node_at((0, 3))
        links = topo.productive_links(a, b)
        assert len(links) == 1
        assert links[0].direction == 1


class TestDorLink:
    def test_lowest_dimension_first(self):
        topo = torus(4, 2)
        src = topo.node_at((0, 0))
        dst = topo.node_at((2, 2))
        link = topo.dor_link(src, dst)
        assert link.dim == 0

    def test_second_dim_when_first_aligned(self):
        topo = torus(4, 2)
        src = topo.node_at((2, 0))
        dst = topo.node_at((2, 2))
        link = topo.dor_link(src, dst)
        assert link.dim == 1

    def test_ties_resolve_positive(self):
        topo = torus(4, 1)
        link = topo.dor_link(0, 2)
        assert link.direction == 1

    def test_at_destination_raises(self):
        with pytest.raises(ValueError):
            torus(4, 2).dor_link(3, 3)

    def test_full_dor_walk_terminates(self):
        topo = torus(5, 3)
        src, dst = 0, topo.num_nodes - 1
        node, hops = src, 0
        while node != dst:
            node = topo.dor_link(node, dst).dst
            hops += 1
            assert hops <= topo.min_distance(src, dst)
        assert hops == topo.min_distance(src, dst)


# ----------------------------------------------------------------------
# The lookups are tables; these are the loops the tables replaced.
# ----------------------------------------------------------------------

def brute_coords(topo, node):
    out = []
    for _ in range(topo.dims):
        out.append(node % topo.radix)
        node //= topo.radix
    return tuple(reversed(out))


def brute_dim_distance(topo, a, b):
    delta = abs(a - b)
    return min(delta, topo.radix - delta) if topo.wrap else delta


def brute_minimal_directions(topo, cur, goal):
    if cur == goal:
        return []
    if not topo.wrap:
        return [1] if goal > cur else [-1]
    forward = (goal - cur) % topo.radix
    backward = (cur - goal) % topo.radix
    if forward < backward:
        return [1]
    if backward < forward:
        return [-1]
    return [1, -1]


def brute_min_distance(topo, src, dst):
    return sum(
        brute_dim_distance(topo, s, d)
        for s, d in zip(brute_coords(topo, src), brute_coords(topo, dst))
    )


def brute_productive_links(topo, node, dst):
    cur, goal = brute_coords(topo, node), brute_coords(topo, dst)
    wanted = set()
    for dim in range(topo.dims):
        for direction in brute_minimal_directions(topo, cur[dim], goal[dim]):
            wanted.add((dim, direction))
    return [
        link for link in topo.links(node)
        if (link.dim, link.direction) in wanted
    ]


def brute_dor_link(topo, node, dst):
    cur, goal = brute_coords(topo, node), brute_coords(topo, dst)
    for dim in range(topo.dims):
        directions = brute_minimal_directions(topo, cur[dim], goal[dim])
        if not directions:
            continue
        for link in topo.links(node):
            if link.dim == dim and link.direction == directions[0]:
                return link
    return None


SHAPES = [
    pytest.param(radix, dims, True, id=f"{radix}-ary-{dims}-torus")
    for radix in (3, 4, 5) for dims in (1, 2, 3)
] + [
    pytest.param(radix, dims, False, id=f"{radix}-ary-{dims}-mesh")
    for radix in (2, 3, 4, 5) for dims in (1, 2, 3)
]


class TestTablesAgainstBruteForce:
    """Every (node, dst): same values, same list order (a mesh's edge
    nodes lack ports, so their port numbers are not ``2 * dim + k``)."""

    @pytest.mark.parametrize("radix,dims,wrap", SHAPES)
    def test_every_pair(self, radix, dims, wrap):
        topo = KAryNCube(radix, dims, wrap=wrap)
        nodes = range(topo.num_nodes)
        for node in nodes:
            assert topo.coords(node) == brute_coords(topo, node)
            assert isinstance(topo.coords(node), tuple)
            ports = [link.port for link in topo.links(node)]
            assert ports == list(range(len(ports)))
            for dst in nodes:
                where = f"{topo.name}: {node} -> {dst}"
                assert topo.min_distance(node, dst) == brute_min_distance(
                    topo, node, dst
                ), where
                links = topo.productive_links(node, dst)
                assert links == brute_productive_links(topo, node, dst), where
                assert [link.port for link in links] == sorted(
                    link.port for link in links
                ), where
                if node == dst:
                    assert links == []
                    with pytest.raises(ValueError, match="node == dst"):
                        topo.dor_link(node, dst)
                else:
                    assert topo.dor_link(node, dst) is brute_dor_link(
                        topo, node, dst
                    ), where
        assert topo.average_min_distance() == pytest.approx(
            sum(brute_min_distance(topo, a, b) for a in nodes for b in nodes)
            / (topo.num_nodes * (topo.num_nodes - 1))
        )

    def test_productive_links_answers_are_the_callers(self):
        topo = torus(4, 2)
        first = topo.productive_links(0, 10)
        first.append(None)
        assert topo.productive_links(0, 10) == first[:-1]


class TestOutOfRangeNodes:
    """Every public lookup rejects a node that does not exist -- also
    ``-1``, which a bare list lookup would answer from the far end."""

    @pytest.mark.parametrize("topo", [torus(4, 2), mesh(3, 2), mesh(2, 3)],
                             ids=lambda topo: topo.name)
    @pytest.mark.parametrize("offset", [-1, 0, 7], ids=["-1", "n", "n+7"])
    def test_value_error_everywhere(self, topo, offset):
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
