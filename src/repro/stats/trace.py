"""Introspection helpers: message timelines and network heat maps.

Everything here reads state the simulator already keeps (message
timestamps, buffer occupancy, per-channel flit counts), so tracing costs
nothing unless asked for.  Used by the examples and handy when debugging
a protocol change: ``occupancy_snapshot`` shows where worms are parked,
``channel_heatmap`` shows where the traffic actually went.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.guarantees import Delivery
    from ..network.engine import Engine
    from ..network.message import Message


def message_timeline(
    message: Union["Message", "Delivery"],
) -> List[Tuple[str, object]]:
    """The lifecycle events of a message, in order, as (event, value);
    a delivered one may be given as its ledger row."""
    events: List[Tuple[str, object]] = [
        ("created", message.created_at),
        ("src", message.src),
        ("dst", message.dst),
        ("payload_flits", message.payload_length),
        ("wire_flits", message.wire_length),
        ("attempts", message.attempts),
        ("kills", message.kills),
        ("fkills", message.fkills),
    ]
    # One entry per kill across attempts; indexed keys keep the pairs
    # unique (callers build dicts from the timeline).
    for index, (cycle, cause) in enumerate(message.kill_history):
        events.append((f"kill_{index}", f"t={cycle} {cause}"))
    if message.first_inject_at is not None:
        events.append(("first_injection", message.first_inject_at))
    if message.header_consumed_at is not None:
        events.append(("header_at_destination", message.header_consumed_at))
    if message.committed_at is not None:
        events.append(("committed", message.committed_at))
    if message.delivered_at is not None:
        events.append(("delivered", message.delivered_at))
        events.append(("total_latency", message.total_latency()))
    events.append(("phase", message.phase.value))
    return events


def format_timeline(message: Union["Message", "Delivery"]) -> str:
    """Human-readable one-message trace."""
    lines = [f"message {message.uid}: {message.src} -> {message.dst}"]
    for event, value in message_timeline(message):
        lines.append(f"  {event:22s} {value}")
    return "\n".join(lines)


def buffer_fill(engine: "Engine") -> Dict[int, Tuple[int, int]]:
    """``node -> (flits buffered, flit capacity)`` over each router's
    input buffers; the one walk every buffer-occupancy reading uses."""
    out: Dict[int, Tuple[int, int]] = {}
    for router in engine.routers:
        held = depth = 0
        for port in router.in_buffers:
            for buf in port:
                held += buf.occupancy
                depth += buf.depth
        out[router.node_id] = (held, depth)
    return out


def buffer_occupancy(engine: "Engine") -> Dict[int, int]:
    """Total flits buffered at each router (including staged arrivals)."""
    return {node: held for node, (held, _) in buffer_fill(engine).items()}


def occupancy_snapshot(engine: "Engine") -> str:
    """ASCII grid of buffered flits per router (2D arrays only).

    Routers are laid out by their topology coordinates; each cell shows
    the flit count, with ``.`` for empty.  Falls back to a flat listing
    for non-2D topologies.
    """
    occupancy = buffer_occupancy(engine)
    topology = engine.topology
    coords0 = topology.coords(0)
    if len(coords0) != 2:
        cells = [f"{node}:{occ}" for node, occ in occupancy.items() if occ]
        return "occupancy: " + (" ".join(cells) if cells else "(empty)")
    radix = getattr(topology, "radix", None)
    if radix is None:  # pragma: no cover - 2D coords imply an array here
        return "occupancy: (unknown layout)"
    rows = []
    for x in range(radix):
        cells = []
        for y in range(radix):
            occ = occupancy[topology.node_at((x, y))]
            cells.append(f"{occ:3d}" if occ else "  .")
        rows.append(" ".join(cells))
    return "\n".join(rows)


def channel_heatmap(engine: "Engine", top: int = 10) -> List[Dict[str, object]]:
    """The ``top`` busiest link channels by flits carried."""
    # (src, dst) tiebreak: equal flit counts are common in short or
    # symmetric runs, and Python's sort is stable on construction order,
    # which is not part of the reproducibility contract.
    links = sorted(
        engine.network.link_channels,
        key=lambda ch: (-ch.flits_carried, ch.src_node, ch.dst_node),
    )
    return [
        {
            "link": f"{ch.src_node}->{ch.dst_node}",
            "dim": ch.dim,
            "direction": ch.direction,
            "wrap": ch.is_wrap,
            "flits": ch.flits_carried,
            "dead": ch.dead,
        }
        for ch in links[:top]
    ]


def channel_load_stats(engine: "Engine") -> Dict[str, float]:
    """Aggregate utilisation of the link channels over the run so far.

    ``utilisation`` is flits carried per channel-cycle; ``imbalance`` is
    the max/mean ratio (1.0 = perfectly balanced -- adaptive routing
    should sit far closer to 1.0 than deterministic routing on skewed
    traffic).  Both are computed over *live* channels only: a dead
    channel carries nothing by construction, and counting it would
    overstate imbalance in exactly the fault scenarios where the metric
    matters.
    """
    cycles = max(engine.now, 1)
    channels = engine.network.link_channels
    counts = [ch.flits_carried for ch in channels if not ch.dead]
    dead = len(channels) - len(counts)
    if not counts:
        return {
            "utilisation": 0.0, "imbalance": 0.0,
            "live_channels": 0, "dead_channels": dead,
        }
    mean = sum(counts) / len(counts)
    return {
        "utilisation": mean / cycles,
        "imbalance": (max(counts) / mean) if mean else 0.0,
        "live_channels": len(counts),
        "dead_channels": dead,
    }
