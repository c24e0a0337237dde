#!/usr/bin/env python
"""CR on an irregular network -- topology independence in action.

Virtual-channel deadlock-avoidance schemes are derived per topology
(datelines for tori, turn restrictions for meshes, ...); an irregular
network has no such recipe.  CR needs none: its deadlock freedom comes
from recovery, so the same router and interface work on any connected
graph.  The paper lists "applicability to a wide variety of network
topologies" among CR's key advantages.

The example builds a small irregular machine-room-style network (a ring
with chords and a two-switch appendage), runs all-pairs traffic under
CR, and verifies delivery and ordering.

Run:  python examples/irregular_network.py
"""

from typing import List

from repro import (
    FastEngine,
    GraphTopology,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    RandomFree,
    WormholeNetwork,
    format_table,
)

EDGES = [
    # backbone ring
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
    # chords
    (0, 3), (1, 4),
    # appendage switches
    (2, 6), (6, 7), (7, 3),
    # a stub that makes the graph properly irregular
    (5, 8),
]


def main() -> None:
    topology = GraphTopology.from_edges(9, EDGES)
    network = WormholeNetwork(
        topology,
        MinimalAdaptive(topology),
        RandomFree(),
        num_vcs=1,
        buffer_depth=2,
    )
    engine = FastEngine(
        network,
        protocol=ProtocolConfig(mode=ProtocolMode.CR),
        seed=19,
        watchdog=10000,
    )

    messages: List[Message] = []
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            msg = Message(src, dst, 8, seq=engine.next_seq(src, dst))
            engine.admit(msg)
            messages.append(msg)

    drained = engine.run_until_drained(60000)
    delivered = sum(m.delivered for m in messages)
    pairs = engine.ledger.validate_fifo()

    rows = [
        {"metric": "nodes", "value": topology.num_nodes},
        {"metric": "edges (unidirectional)", "value": 2 * len(EDGES)},
        {"metric": "avg minimal distance",
         "value": topology.average_min_distance()},
        {"metric": "messages sent", "value": len(messages)},
        {"metric": "messages delivered", "value": delivered},
        {"metric": "kills", "value": engine.stats.counters.get("kills", 0)},
        {"metric": "drained", "value": drained},
        {"metric": "FIFO pairs verified", "value": pairs},
    ]
    print(format_table(rows, ["metric", "value"],
                       title="CR on an irregular 9-node network"))
    assert drained and delivered == len(messages)
    print("\nall-pairs traffic delivered, in order, with one VC and no "
          "topology-specific deadlock analysis")


if __name__ == "__main__":
    main()
