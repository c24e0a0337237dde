"""k-ary n-cube topologies: torus and mesh.

These are the paper's evaluation networks (2D torus with wraparound
channels is the headline case: CR provides deadlock-free adaptive routing
there with *no* virtual channels, where dimension-order routing needs two
and prior adaptive schemes need more).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence, Tuple

from .base import LinkSpec, Topology


class KAryNCube(Topology):
    """A k-ary n-cube, optionally with wraparound (torus) links.

    Nodes are numbered in row-major order of their coordinates; node
    coordinates are ``(c[0], ..., c[n-1])`` with ``c[0]`` varying
    slowest.  Each node has up to ``2n`` link ports ordered
    ``(dim 0, +), (dim 0, -), (dim 1, +), ...``; in a mesh, edge nodes
    simply lack the ports that would leave the array, and ports stay
    densely numbered.

    Everything the routing questions are made of is tabled at
    construction -- coordinates per node, distance and minimal
    directions per coordinate pair of one dimension, and each node's
    ``(dim, direction) -> link`` map (O(nodes + radix^2) in all) -- so
    ``coords``, ``min_distance``, ``productive_links`` and ``dor_link``
    are lookups.
    """

    def __init__(self, radix: int, dims: int, wrap: bool = True) -> None:
        if radix < 2:
            raise ValueError("radix must be >= 2")
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if wrap and radix == 2:
            # A 2-ary torus would have duplicate links (+1 and -1 reach
            # the same neighbour); treat it as a mesh/hypercube instead.
            raise ValueError("2-ary torus is degenerate; use wrap=False")
        self.radix = radix
        self.dims = dims
        self.wrap = wrap
        self._num_nodes = radix**dims
        # Row-major with c[0] slowest is the order product() counts in.
        self._coords: List[Tuple[int, ...]] = list(
            product(range(radix), repeat=dims)
        )
        ring = range(radix)
        #: _dist[a][b] / _dirs[a][b]: one dimension, coordinate a to b.
        self._dist: List[List[int]] = [
            [self._dim_distance(a, b) for b in ring] for a in ring
        ]
        self._dirs: List[List[Tuple[int, ...]]] = [
            [tuple(self._minimal_directions(a, b)) for b in ring]
            for a in ring
        ]
        self._links: List[List[LinkSpec]] = [
            self._build_links(node) for node in range(self._num_nodes)
        ]
        self._ports: List[Dict[Tuple[int, int], LinkSpec]] = [
            {(link.dim, link.direction): link for link in links}
            for links in self._links
        ]

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def name(self) -> str:
        kind = "torus" if self.wrap else "mesh"
        return f"{self.radix}-ary {self.dims}-{kind}"

    def links(self, node: int) -> Sequence[LinkSpec]:
        self.validate_node(node)
        return self._links[node]

    def coords(self, node: int) -> Tuple[int, ...]:
        # The range test is not optional: _coords[-1] would answer.
        if not 0 <= node < self._num_nodes:
            self.validate_node(node)
        return self._coords[node]

    def node_at(self, coords: Tuple[int, ...]) -> int:
        if len(coords) != self.dims:
            raise ValueError(f"expected {self.dims} coordinates")
        node = 0
        for c in coords:
            if not 0 <= c < self.radix:
                raise ValueError(f"coordinate {c} out of range")
            node = node * self.radix + c
        return node

    def min_distance(self, src: int, dst: int) -> int:
        dist = self._dist
        total = 0
        for s, d in zip(self.coords(src), self.coords(dst)):
            total += dist[s][d]
        return total

    def productive_links(self, node: int, dst: int) -> List[LinkSpec]:
        cur, goal = self.coords(node), self.coords(dst)
        ports = self._ports[node]
        dirs = self._dirs
        # Dimensions ascending, +1 before -1: port order.  A minimal
        # direction always has a port (a mesh never points off its edge).
        return [
            ports[dim, direction]
            for dim in range(self.dims)
            for direction in dirs[cur[dim]][goal[dim]]
        ]

    def dor_link(self, node: int, dst: int) -> LinkSpec:
        cur, goal = self.coords(node), self.coords(dst)
        dirs = self._dirs
        for dim in range(self.dims):
            directions = dirs[cur[dim]][goal[dim]]
            if directions:
                # ties resolved toward +1
                return self._ports[node][dim, directions[0]]
        raise ValueError(f"dor_link called with node == dst ({node})")

    def average_min_distance(self) -> float:
        """Closed form over the product structure (the base class is
        O(n^2), which dominates ``SimConfig.build`` at radix 16).

        Distances are per-dimension sums and dimensions are
        independent, so the all-pairs total is ``dims`` times the
        one-dimension pair total times the number of coordinate
        combinations in the other dimensions — all integer arithmetic,
        so the result is bit-identical to the brute-force mean.
        """
        k = self.radix
        per_dim_total = sum(map(sum, self._dist))
        n = self._num_nodes
        total = self.dims * per_dim_total * k ** (2 * (self.dims - 1))
        return total / (n * (n - 1))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dim_distance(self, a: int, b: int) -> int:
        delta = abs(a - b)
        if self.wrap:
            return min(delta, self.radix - delta)
        return delta

    def _minimal_directions(self, cur: int, goal: int) -> List[int]:
        """Directions (+1/-1) that reduce distance in one dimension.

        In a torus with even radix and the two nodes exactly half-way
        apart, both directions are minimal (adaptive routing may use
        either; dimension-order deterministically takes +1).
        """
        if cur == goal:
            return []
        if not self.wrap:
            return [1] if goal > cur else [-1]
        forward = (goal - cur) % self.radix
        backward = (cur - goal) % self.radix
        if forward < backward:
            return [1]
        if backward < forward:
            return [-1]
        return [1, -1]

    def _build_links(self, node: int) -> List[LinkSpec]:
        coords = self._coords[node]
        links: List[LinkSpec] = []
        for dim in range(self.dims):
            c = coords[dim]
            for direction in (1, -1):
                nc = c + direction
                is_wrap = False
                if nc < 0 or nc >= self.radix:
                    if not self.wrap:
                        continue
                    nc %= self.radix
                    is_wrap = True
                neighbour = list(coords)
                neighbour[dim] = nc
                links.append(
                    LinkSpec(
                        port=len(links),
                        dst=self.node_at(tuple(neighbour)),
                        dim=dim,
                        direction=direction,
                        is_wrap=is_wrap,
                    )
                )
        return links


def torus(radix: int, dims: int = 2) -> KAryNCube:
    """A k-ary n-cube with wraparound links."""
    return KAryNCube(radix, dims, wrap=True)


def mesh(radix: int, dims: int = 2) -> KAryNCube:
    """A k-ary n-cube without wraparound links."""
    return KAryNCube(radix, dims, wrap=False)
