#!/usr/bin/env python
"""Watch CR break a real deadlock that wedges plain wormhole routing.

Four long worms on a 4-node unidirectional ring, each sending two hops
clockwise (the only way round), form a textbook channel-dependency cycle: worm i holds channel
i -> i+1 and waits for channel i+1 -> i+2 forever.  With classic
blocking wormhole injection the network wedges (the simulator's
watchdog proves it).  With CR interfaces -- same routing relation, same
single virtual channel -- the injection stall trips the source timeout,
a kill tears one worm down, the cycle breaks, and everything delivers.

Run:  python examples/deadlock_recovery.py
"""

from repro import (
    FastEngine,
    GraphTopology,
    Message,
    MinimalAdaptive,
    NetworkDeadlockError,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
)


def build_engine(mode: ProtocolMode) -> FastEngine:
    # A 4-node ring with clockwise links only: every hop has one
    # candidate, so everyone goes clockwise.
    topology = GraphTopology.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], bidirectional=False
    )
    network = WormholeNetwork(
        topology,
        MinimalAdaptive(topology),
        num_vcs=1,
        buffer_depth=2,
    )
    return FastEngine(
        network,
        protocol=ProtocolConfig(mode=mode),
        seed=0,
        watchdog=400,
    )


def inject_cycle(engine: FastEngine):
    messages = []
    for src in range(4):
        msg = Message(src, (src + 2) % 4, 40, seq=src)
        engine.admit(msg)
        messages.append(msg)
    return messages


def main() -> None:
    print("1) plain blocking wormhole, adaptive routing, 1 VC:")
    engine = build_engine(ProtocolMode.PLAIN)
    inject_cycle(engine)
    try:
        for _ in range(5000):
            engine.step()
        print("   unexpectedly survived!")
    except NetworkDeadlockError as err:
        print(f"   DEADLOCK -> {err}")

    print("\n2) the same pattern under Compressionless Routing:")
    engine = build_engine(ProtocolMode.CR)
    messages = inject_cycle(engine)
    drained = engine.run_until_drained(20000)
    kills = engine.stats.counters.get("kills", 0)
    print(f"   drained={drained} after {engine.now} cycles, "
          f"kills={kills}, retransmissions="
          f"{engine.stats.counters.get('retransmissions', 0)}")
    for msg in messages:
        print(f"   message {msg.src}->{msg.dst}: delivered at "
              f"t={msg.delivered_at}, killed {msg.kills}x")
    print(
        "\nThe kill/retransmit recovery is CR's replacement for "
        "virtual-channel deadlock avoidance: the cycle formed, one "
        "source timed out, its kill signal released the channels, and "
        "the retries completed."
    )


if __name__ == "__main__":
    main()
