"""Permanent faults: dead channels and dead routers.

FCR tolerates permanent faults through its ordinary mechanism: a worm
heading into a dead channel stalls, the source times out and kills it,
and the retry -- routed by the *adaptive* relation with random selection
-- diversifies away from the fault.  Routers avoid locally-known dead
output channels when an alternative productive channel exists, so after
the first encounter most traffic never touches the fault again.

``PermanentFaultSchedule`` enacts faults at configured cycles, which is
how the "nonstop" claim is exercised: faults appear *while traffic is in
flight* and no message is lost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from .model import FaultModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.network import WormholeNetwork

_INF = float("inf")


@dataclass(frozen=True)
class ChannelFault:
    """Kill the src->dst link at the given cycle."""

    cycle: int
    src: int
    dst: int


class PermanentFaultSchedule(FaultModel):
    """Applies channel faults when their cycle arrives."""

    def __init__(self, faults: Sequence[ChannelFault]) -> None:
        self.pending: List[ChannelFault] = sorted(
            faults, key=lambda f: f.cycle
        )
        self.applied: List[ChannelFault] = []

    def on_cycle(self, now: int, network: "WormholeNetwork") -> None:
        while self.pending and self.pending[0].cycle <= now:
            fault = self.pending.pop(0)
            network.find_link(fault.src, fault.dst).dead = True
            self.applied.append(fault)
            if self.bus is not None:
                from ..obs.events import FaultActivated

                self.bus.emit(FaultActivated(
                    now, "channel_dead", fault.src, fault.dst
                ))

    def next_event(self, now: int) -> float:
        return self.pending[0].cycle if self.pending else _INF


def random_channel_faults(
    network: "WormholeNetwork",
    count: int,
    rng: random.Random,
    cycle: int = 0,
) -> List[ChannelFault]:
    """``count`` random links killed in both directions at ``cycle``.

    Returns ``2 * count`` channel faults, or fewer when no more links
    can die: every node keeps live outgoing and incoming links, which
    in a torus of radix >= 3 keeps the network connected for adaptive
    routing with retries.
    """
    links = list(network.link_channels)
    rng.shuffle(links)
    chosen: List[ChannelFault] = []
    nodes = range(network.topology.num_nodes)
    # Dead links touching each node: as many in as out, since they pair.
    dead = {n: 0 for n in nodes}
    degree = {n: len(network.topology.links(n)) for n in nodes}
    for link in links:
        if len(chosen) >= 2 * count:
            break
        src, dst = link.src_node, link.dst_node
        if (any(f.src == src and f.dst == dst for f in chosen)
                or dead[src] + 2 > degree[src] - 1
                or dead[dst] + 2 > degree[dst] - 1):
            continue
        chosen += (ChannelFault(cycle, src, dst),
                   ChannelFault(cycle, dst, src))
        dead[src] += 1
        dead[dst] += 1
    return chosen


def channel_faults(
    network: "WormholeNetwork", spec, seed: int
) -> List[ChannelFault]:
    """The dead links ``SimConfig.permanent_faults`` names.

    A count is that many random links (:func:`random_channel_faults`
    at cycle 0, drawn from ``random.Random(seed)``); a list holds
    ``(cycle, src, dst)`` placements.  What the network cannot honour
    is a ``ValueError`` naming the field.
    """
    if isinstance(spec, (list, tuple)):
        return [_placement(network, entry) for entry in spec]
    if type(spec) is not int or spec < 0:
        raise ValueError(
            f"permanent_faults must be a count >= 0 or a list of (cycle, "
            f"src, dst) placements, got {spec!r}"
        )
    faults = (random_channel_faults(network, spec, random.Random(seed))
              if spec else [])
    if len(faults) < 2 * spec:
        raise ValueError(
            f"permanent_faults={spec}: only {len(faults) // 2} links can "
            f"die without cutting a node off"
        )
    return faults


def _placement(network: "WormholeNetwork", entry) -> ChannelFault:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 3
            and all(type(value) is int for value in entry)
            and entry[0] >= 0):
        raise ValueError(
            f"permanent_faults placement {entry!r} is not "
            f"(cycle >= 0, src, dst)"
        )
    try:
        network.find_link(entry[1], entry[2])
    except KeyError as exc:
        raise ValueError(
            f"permanent_faults placement {entry!r}: {exc.args[0]}"
        ) from None
    return ChannelFault(*entry)
