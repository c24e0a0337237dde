"""Property: CR's guarantees hold on *random* connected graphs.

The paper claims "applicability to a wide variety of network
topologies"; the strongest executable form is a fuzzer: generate random
connected bidirectional graphs, run CR all-pairs traffic over them with
one virtual channel, and require the full guarantee set — no wedge,
complete delivery, exactly-once, FIFO, clean teardown.  No
per-topology deadlock analysis exists for these graphs; recovery alone
carries the burden.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    GraphTopology,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    RandomFree,
    WormholeNetwork,
)
from repro.verify.reference import ReferenceEngine


@st.composite
def random_connected_graph(draw):
    """A random connected graph: spanning tree + extra chords."""
    n = draw(st.integers(5, 12))
    rng_seed = draw(st.integers(0, 2**16))
    import random as _random

    rng = _random.Random(rng_seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return n, sorted(edges), draw(st.integers(0, 2**16))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=random_connected_graph())
def test_cr_guarantees_on_random_graphs(case):
    n, edges, seed = case
    topology = GraphTopology.from_edges(n, edges)
    network = WormholeNetwork(
        topology, MinimalAdaptive(topology), RandomFree(), num_vcs=1
    )
    engine = ReferenceEngine(
        network,
        protocol=ProtocolConfig(mode=ProtocolMode.CR),
        seed=seed,
        watchdog=15000,
    )
    messages = []
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            msg = Message(src, dst, 6, seq=engine.next_seq(src, dst))
            engine.admit(msg)
            messages.append(msg)
    assert engine.run_until_drained(80000), (
        f"failed to drain on graph n={n} edges={edges}"
    )
    assert all(m.delivered for m in messages)
    assert len(engine.ledger.delivered_uids) == len(messages)
    engine.ledger.validate_fifo()
    for router in engine.routers:
        assert not router.claims and not router.out_owner
        for port_bufs in router.in_buffers:
            for buf in port_bufs:
                assert buf.occupancy == 0 and buf.owner is None
