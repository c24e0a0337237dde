"""Arbitrary-graph topology.

CR's deadlock recovery makes no assumption about the channel-dependency
structure, so it applies to irregular networks where no cycle-free
virtual-channel assignment is known.  This adapter turns any connected
(di)graph -- given as an adjacency mapping or an edge list -- into a
routable topology using all-pairs BFS.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .base import LinkSpec, Topology


class GraphTopology(Topology):
    """Topology over an explicit adjacency structure.

    Parameters
    ----------
    adjacency:
        Mapping from node id to an iterable of neighbour ids.  Links are
        unidirectional as given; pass both directions for full-duplex
        networks (or use :func:`from_edges` with ``bidirectional=True``).
    """

    def __init__(self, adjacency: Mapping[int, Iterable[int]]) -> None:
        nodes = sorted(adjacency)
        if nodes != list(range(len(nodes))):
            raise ValueError("nodes must be densely numbered from 0")
        self._num_nodes = len(nodes)
        self._links: List[List[LinkSpec]] = []
        for node in nodes:
            specs = []
            for dst in adjacency[node]:
                if not 0 <= dst < self._num_nodes:
                    raise ValueError(f"edge {node}->{dst} leaves the graph")
                if dst == node:
                    raise ValueError(f"self-loop at node {node}")
                specs.append(LinkSpec(port=len(specs), dst=dst))
            self._links.append(specs)
        self._dist = self._all_pairs_bfs()
        unreachable = [
            (a, b)
            for a in range(self._num_nodes)
            for b in range(self._num_nodes)
            if self._dist[a][b] < 0
        ]
        if unreachable:
            a, b = unreachable[0]
            raise ValueError(
                f"graph is not strongly connected (no path {a}->{b})"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        bidirectional: bool = True,
    ) -> "GraphTopology":
        adjacency: Dict[int, List[int]] = {n: [] for n in range(num_nodes)}
        for a, b in edges:
            adjacency[a].append(b)
            if bidirectional:
                adjacency[b].append(a)
        return cls(adjacency)

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def name(self) -> str:
        return f"graph({self._num_nodes} nodes)"

    def links(self, node: int) -> Sequence[LinkSpec]:
        return self._links[node]

    def min_distance(self, src: int, dst: int) -> int:
        self.validate_node(src)
        self.validate_node(dst)
        return self._dist[src][dst]

    def productive_links(self, node: int, dst: int) -> List[LinkSpec]:
        here = self._dist[node][dst]
        return [
            link
            for link in self._links[node]
            if self._dist[link.dst][dst] == here - 1
        ]

    def dor_link(self, node: int, dst: int) -> LinkSpec:
        """Deterministic choice: the lowest-numbered productive port.

        Note: unlike dimension order on a mesh, this fixed-order rule is
        *not* deadlock-free on general graphs -- which is exactly the
        case CR's recovery mechanism is meant to cover.
        """
        productive = self.productive_links(node, dst)
        if not productive:
            raise ValueError(f"dor_link called with node == dst ({node})")
        return productive[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _all_pairs_bfs(self) -> List[List[int]]:
        dist = []
        for src in range(self._num_nodes):
            row = [-1] * self._num_nodes
            row[src] = 0
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for link in self._links[cur]:
                    if row[link.dst] < 0:
                        row[link.dst] = row[cur] + 1
                        queue.append(link.dst)
            dist.append(row)
        return dist
