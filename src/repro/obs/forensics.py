"""Deadlock forensics: what exactly was wedged when the watchdog fired.

A bare "no progress for N cycles" is useless for diagnosing a routing
or protocol bug; the interesting facts are *which* worms are blocked on
*which* resources and whether those waits close a cycle.  When the
engine's watchdog fires it builds a :class:`DeadlockReport` and attaches
it to the raised :class:`~repro.network.engine.NetworkDeadlockError`
(``err.report``), carrying:

* the **wait-for graph** of blocked worms -- one edge per blocked head,
  naming the message it waits on and why (VC allocation vs credit
  starvation vs a dead channel),
* the first **dependency cycle** found in that graph (the deadlock
  witness; empty when the wedge is a livelock or resource exhaustion),
* the **stalled injector** list (sources stuck mid-injection),
* an ASCII **occupancy snapshot** of where flits are parked, and
* the **last events** from an attached sink that keeps ``events``
  (a :class:`~repro.obs.sinks.ListSink`).

Everything is computed from state the simulator already keeps, so the
bundle costs nothing until the watchdog actually fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine

#: how many of an attached sink's newest events the report keeps.
RECENT_EVENT_LIMIT = 64


@dataclass
class DeadlockReport:
    """The forensic bundle attached to ``NetworkDeadlockError``."""

    cycle: int
    watchdog: int
    routing: str
    protocol: str
    live_messages: int
    injecting: int
    wait_for: List[Dict[str, Any]] = field(default_factory=list)
    cycle_uids: List[int] = field(default_factory=list)
    stalled_injectors: List[Dict[str, Any]] = field(default_factory=list)
    occupancy: str = ""
    recent_events: List[Dict[str, Any]] = field(default_factory=list)

    def format(self) -> str:
        """Multi-line human-readable rendering of the bundle."""
        lines = [
            f"deadlock forensics at t={self.cycle} "
            f"({self.routing} routing, {self.protocol} protocol, "
            f"watchdog={self.watchdog}):",
            f"  {self.live_messages} live message(s), "
            f"{self.injecting} injecting",
        ]
        if self.wait_for:
            lines.append("  wait-for graph:")
            for edge in self.wait_for:
                target = edge["waits_on"]
                waits = f"message {target}" if target is not None else "-"
                lines.append(
                    f"    message {edge['uid']} at node {edge['node']} "
                    f"waits on {waits} ({edge['kind']})"
                )
        if self.cycle_uids:
            chain = " -> ".join(str(uid) for uid in self.cycle_uids)
            lines.append(f"  dependency cycle: {chain} -> "
                         f"{self.cycle_uids[0]}")
        else:
            lines.append("  no dependency cycle found in the wait-for "
                         "graph")
        if self.stalled_injectors:
            lines.append("  stalled injectors:")
            for entry in self.stalled_injectors:
                lines.append(
                    f"    node {entry['node']}: message {entry['uid']} "
                    f"stalled {entry['stall']} cycle(s)"
                )
        if self.occupancy:
            lines.append("  buffer occupancy:")
            for row in self.occupancy.splitlines():
                lines.append(f"    {row}")
        if self.recent_events:
            lines.append(f"  last {len(self.recent_events)} event(s):")
            for event in self.recent_events:
                fields = ", ".join(
                    f"{k}={v}" for k, v in event.items()
                    if k not in ("event", "cycle")
                )
                lines.append(
                    f"    t={event.get('cycle')} {event.get('event')} "
                    f"({fields})"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Wait-for graph construction
# ----------------------------------------------------------------------

def wait_for_edges(engine: "Engine") -> List[Dict[str, Any]]:
    """One edge per blocked worm head: who it waits on, and why.

    ``kind`` is ``'vc-allocation'`` (header cannot claim any candidate
    output), ``'credit'`` (output claimed but the downstream buffer is
    starving it), ``'dead-channel'`` (a candidate output is faulted) or
    ``'ejection-credit'`` (waiting on receiver staging slots).
    """
    from ..routing.base import Candidate

    edges: List[Dict[str, Any]] = []
    for message in engine.in_flight:
        segments = message.active_segments
        if not segments:
            continue
        head = segments[-1]
        if head.owner is not message:
            continue
        router = head.router
        if head.routed and head.out_port is not None:
            channel = router.out_channels[head.out_port]
            if channel.is_ejection:
                edges.append({
                    "uid": message.uid, "node": router.node_id,
                    "waits_on": None, "kind": "ejection-credit",
                })
            else:
                sink = channel.sinks[head.out_vc or 0]
                owner = sink.owner if sink is not None else None
                if owner is not None and owner is not message:
                    edges.append({
                        "uid": message.uid, "node": router.node_id,
                        "waits_on": owner.uid, "kind": "credit",
                    })
            continue
        # Header still waiting for an output VC: every candidate it
        # could take is either owned by another worm or dead.
        if router.node_id == message.dst:
            tiers = [[Candidate(port, 0) for port in router.eject_ports]]
        else:
            tiers = engine.routing.candidates(router, message)
        for tier in tiers:
            for cand in tier:
                channel = router.out_channels[cand.port]
                if channel.dead:
                    edges.append({
                        "uid": message.uid, "node": router.node_id,
                        "waits_on": None, "kind": "dead-channel",
                    })
                    continue
                owner = router.out_owner.get((cand.port, cand.vc))
                if owner is not None and owner is not message:
                    edges.append({
                        "uid": message.uid, "node": router.node_id,
                        "waits_on": owner.uid, "kind": "vc-allocation",
                    })
    return edges


def find_cycle(edges: List[Dict[str, Any]]) -> List[int]:
    """One dependency cycle in a wait-for edge list, as uids, or []."""
    graph: Dict[int, List[int]] = {}
    for edge in edges:
        target = edge["waits_on"]
        if target is not None:
            graph.setdefault(edge["uid"], []).append(target)
    visited: Dict[int, int] = {}  # 0 = in progress, 1 = done
    for start in graph:
        if start in visited:
            continue
        stack: List[int] = [start]
        path: List[int] = []
        on_path: Dict[int, int] = {}
        while stack:
            node = stack[-1]
            if node not in visited:
                visited[node] = 0
                on_path[node] = len(path)
                path.append(node)
            advanced = False
            for target in graph.get(node, []):
                if target in on_path:
                    return path[on_path[target]:]
                if target not in visited:
                    stack.append(target)
                    advanced = True
                    break
            if not advanced:
                visited[node] = 1
                stack.pop()
                path.pop()
                on_path.pop(node, None)
    return []


def stalled_injector_list(engine: "Engine") -> List[Dict[str, Any]]:
    """Injectors stuck mid-message, with their current stall counts."""
    out = []
    for node in engine.nodes:
        for injector in node.injectors:
            if injector.current is not None and injector.stall > 0:
                out.append({
                    "node": node.node_id,
                    "uid": injector.current.uid,
                    "stall": injector.stall,
                })
    return out


def _recent_events(engine: "Engine") -> List[Dict[str, Any]]:
    from .events import event_to_dict

    if engine.bus is None:
        return []
    for sink in engine.bus.sinks:
        events = getattr(sink, "events", None)
        if events is not None:
            return [event_to_dict(e) for e in events[-RECENT_EVENT_LIMIT:]]
    return []


def build_deadlock_report(engine: "Engine", now: int) -> DeadlockReport:
    """Assemble the full forensic bundle at watchdog-fire time."""
    from ..core.protocol import MessagePhase
    from ..stats.trace import occupancy_snapshot

    edges = wait_for_edges(engine)
    live_phases = (MessagePhase.INJECTING, MessagePhase.COMMITTED)
    return DeadlockReport(
        cycle=now,
        watchdog=engine.watchdog,
        routing=engine.routing.name,
        protocol=engine.protocol.mode.value,
        live_messages=len(engine.live),
        injecting=sum(
            1 for m in engine.injecting if m.phase in live_phases
        ),
        wait_for=edges,
        cycle_uids=find_cycle(edges),
        stalled_injectors=stalled_injector_list(engine),
        occupancy=occupancy_snapshot(engine),
        recent_events=_recent_events(engine),
    )
