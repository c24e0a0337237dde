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
    bidirectional: bool = True,
    keep_connected: bool = True,
) -> List[ChannelFault]:
    """Pick ``count`` random faulted links (pairs when bidirectional).

    ``count`` is the number of selections: with ``bidirectional`` each
    selection kills both directions of a link, so ``2 * count`` channel
    faults are returned.  With ``keep_connected`` the selection avoids
    isolating any node: every node keeps live outgoing and incoming
    links, which in a torus of radix >= 3 keeps the network connected
    for adaptive routing with retries.
    """
    links = list(network.link_channels)
    rng.shuffle(links)
    chosen: List[ChannelFault] = []
    selections = 0
    dead_out = {n: 0 for n in range(network.topology.num_nodes)}
    dead_in = {n: 0 for n in range(network.topology.num_nodes)}
    out_degree = {
        n: len(network.topology.links(n))
        for n in range(network.topology.num_nodes)
    }
    for link in links:
        if selections >= count:
            break
        if any(f.src == link.src_node and f.dst == link.dst_node
               for f in chosen):
            continue
        if keep_connected:
            margin = 2 if bidirectional else 1
            if dead_out[link.src_node] + margin > out_degree[link.src_node] - 1:
                continue
            if dead_in[link.dst_node] + margin > out_degree[link.dst_node] - 1:
                continue
        chosen.append(ChannelFault(cycle, link.src_node, link.dst_node))
        dead_out[link.src_node] += 1
        dead_in[link.dst_node] += 1
        if bidirectional:
            chosen.append(ChannelFault(cycle, link.dst_node, link.src_node))
            dead_out[link.dst_node] += 1
            dead_in[link.src_node] += 1
        selections += 1
    return chosen


def kill_router(network: "WormholeNetwork", node: int) -> int:
    """Mark every link touching ``node`` dead; returns links killed."""
    killed = 0
    for channel in network.link_channels:
        if channel.src_node == node or channel.dst_node == node:
            if not channel.dead:
                channel.dead = True
                killed += 1
    return killed
