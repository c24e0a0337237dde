"""Binary hypercube topology.

Included to demonstrate CR's topology generality (the fault-tolerant
routing literature the paper positions against is largely
hypercube-based).  E-cube (lowest-differing-bit first) is the
deterministic order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .base import LinkSpec, Topology


class Hypercube(Topology):
    """An n-dimensional binary hypercube (2**n nodes).

    Node ids are bit vectors; a node has one link port per dimension,
    port ``d`` flipping bit ``d``.
    """

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self._num_nodes = 1 << dims
        self._links: List[List[LinkSpec]] = [
            [
                LinkSpec(
                    port=d,
                    dst=node ^ (1 << d),
                    dim=d,
                    direction=1 if node & (1 << d) == 0 else -1,
                )
                for d in range(dims)
            ]
            for node in range(self._num_nodes)
        ]

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def name(self) -> str:
        return f"{self.dims}-cube"

    def links(self, node: int) -> Sequence[LinkSpec]:
        self.validate_node(node)
        return self._links[node]

    def coords(self, node: int) -> Tuple[int, ...]:
        self.validate_node(node)
        return tuple((node >> d) & 1 for d in range(self.dims))

    def node_at(self, coords: Tuple[int, ...]) -> int:
        if len(coords) != self.dims:
            raise ValueError(f"expected {self.dims} coordinates")
        node = 0
        for d, bit in enumerate(coords):
            if bit not in (0, 1):
                raise ValueError("hypercube coordinates are bits")
            node |= bit << d
        return node

    def min_distance(self, src: int, dst: int) -> int:
        self._validate_pair(src, dst)
        return bin(src ^ dst).count("1")

    def average_min_distance(self) -> float:
        """Closed form: each bit differs in exactly half the ordered
        pairs, so the all-pairs Hamming total is ``dims * n^2 / 2`` —
        integer arithmetic, bit-identical to the brute-force mean.
        """
        n = self._num_nodes
        total = self.dims * (n * n // 2)
        return total / (n * (n - 1))

    def _validate_pair(self, node: int, dst: int) -> None:
        n = self._num_nodes
        if not (0 <= node < n and 0 <= dst < n):
            self.validate_node(node)
            self.validate_node(dst)

    def productive_links(self, node: int, dst: int) -> List[LinkSpec]:
        self._validate_pair(node, dst)
        diff = node ^ dst
        return [
            link for link in self._links[node] if diff & (1 << link.dim)
        ]

    def dor_link(self, node: int, dst: int) -> LinkSpec:
        self._validate_pair(node, dst)
        diff = node ^ dst
        if diff == 0:
            raise ValueError(f"dor_link called with node == dst ({node})")
        lowest = (diff & -diff).bit_length() - 1
        return self._links[node][lowest]
