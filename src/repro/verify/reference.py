"""The reference engine: this is the spec.

``ReferenceEngine`` runs every phase of the shared cycle loop
(``repro.network.engine``) as a plain sweep over every component,
through the components' own methods -- one body per phase, written to
be read.  It is what ``SimConfig(engine="reference")`` builds, the only
engine that runs PCS probe circuits and the software-retry layer, and
the engine ``repro.verify.mutations`` plants its bugs on (three of them
patch ``_transfer``, below).

The product, ``repro.network.fastengine.FastEngine``, is checked
against it flit for flit: by ``repro.verify.equivalence`` (event
stream, report and channel state of one config under both), by the
per-cycle lockstep oracles in ``tests/network/``, and by
``tools/traffic_golden.py --check`` against digests recorded from this
engine in ``tests/golden/traffic.json``.  Every draw of a run without
a workload generator comes from the base's ``rng`` (the arbitration
shuffle, :func:`~repro.routing.base.pick` of an output, a probe hop or
an injection lane, the DOR lane, backoff gaps, transient corruption),
so a harness that enumerates choices replaces that one attribute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from ..core.pcs import PCSManager
from ..core.protocol import KillCause, ProtocolMode
from ..network.engine import _LIVE_PHASES, Engine
from ..routing.base import Candidate, pick

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.buffer import VCBuffer
    from ..network.message import Message
    from ..network.router import Router


class ReferenceEngine(Engine):
    """Every phase a full sweep; steps every cycle (``_skip`` is the
    base's 0)."""

    def __init__(self, network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        if self.protocol.mode is ProtocolMode.PCS:
            self.pcs = PCSManager(self)

    # ------------------------------------------------------------------
    # Phases that are plain sweeps over every component
    # ------------------------------------------------------------------

    def _tick_credits(self, now: int) -> None:
        for channel in self._all_channels:
            if channel._pending:
                channel.tick(now)

    def _fault_sweep(self, now: int) -> None:
        self.fault_model.on_cycle(now, self.network)

    def _eject(self, now: int) -> None:
        for node in self.nodes:
            node.receiver.process(now)

    def _inject(self, now: int) -> None:
        for node in self.nodes:
            for injector in node.injectors:
                injector.step(now)
        if self.pcs is not None:
            self.pcs.step(now)

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------

    def _merge_arrivals(self, now: int) -> None:
        if not self._arrival_buffers:
            return
        fcr = self.protocol.mode is ProtocolMode.FCR
        done = []
        for buffer in self._arrival_buffers:
            arrived = buffer.merge_incoming(now)
            if arrived:
                self.last_progress = now
                for flit in arrived:
                    if not flit.is_head:
                        continue
                    message = flit.message
                    if message.phase not in _LIVE_PHASES:
                        continue
                    if fcr and flit.corrupted:
                        # Per-flit check code fails at the router: the
                        # router initiates a backward kill to the source.
                        self.kills.initiate(
                            message,
                            KillCause.HEADER_FAULT,
                            backward=True,
                            now=now,
                        )
                    else:
                        self.route_pending.add(buffer)
            if not buffer.incoming:
                done.append(buffer)
        for buffer in done:
            self._arrival_buffers.discard(buffer)

    # ------------------------------------------------------------------
    # Routing (header output-VC allocation)
    # ------------------------------------------------------------------

    def _route_headers(self, now: int) -> None:
        if not self.route_pending:
            return
        pending: List["VCBuffer"] = list(self.route_pending)
        if len(pending) > 1:
            self.rng.shuffle(pending)
        for buffer in pending:
            head = buffer.head()
            if head is None or not head.is_head:
                self.route_pending.discard(buffer)
                continue
            if buffer.routed:
                # Already holds an output (a PCS probe reserved it, or a
                # stale queue entry): nothing to allocate.
                self.route_pending.discard(buffer)
                continue
            message = head.message
            if message.phase not in _LIVE_PHASES:
                self.route_pending.discard(buffer)
                continue
            if self._grant(buffer, message):
                buffer.route_stall_since = None
                self.route_pending.discard(buffer)
            elif buffer.route_stall_since is None:
                buffer.route_stall_since = now

    def _grant(self, buffer: "VCBuffer", message: "Message") -> bool:
        router = buffer.router
        if router.node_id == message.dst:
            tiers = [[Candidate(port, 0) for port in router.eject_ports]]
        else:
            tiers = self.routing.candidates(router, message)
        for tier in tiers:
            free = [
                cand
                for cand in tier
                if router.output_free(cand.port, cand.vc)
                and not router.out_channels[cand.port].dead
            ]
            if not free:
                continue
            choice = pick(free, self.rng)
            router.claim_output(choice.port, choice.vc, buffer, message)
            if choice.is_escape:
                message.escape_hops += 1
                message.used_escape = True
                self.stats.on_escape_grant(message)
            if choice.is_misroute:
                message.misroutes_used += 1
                self.stats.counters["misroute_hops"] += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Switch traversal (one flit per physical channel)
    # ------------------------------------------------------------------

    def _switch(self, now: int) -> None:
        for router in self.routers:
            claims = router.claims
            if not claims:
                continue
            out_channels = router.out_channels
            winners = []
            used_inputs: Set[int] = set()
            requests: List = []
            # Claims in key order: ports ascending, VCs within.  An
            # output (port, VC) holds at most one claim, so that is the
            # full deterministic tie-break, never dict insertion order
            # (trace diffs between engine implementations must be
            # order-stable).  A port's requests are adjacent, and its
            # round-robin winner takes its input port before the next
            # port's requests are filtered.
            for (port, vc), buffer in sorted(claims.items()):
                if requests and port != requests[0][0]:
                    pick = router.rotate(requests[0][0], len(requests))
                    used_inputs.add(requests[pick][2].port)
                    winners.append(requests[pick])
                    requests = []
                if (
                    buffer.fifo
                    and buffer.port not in used_inputs
                    and buffer.owner is not None
                    and buffer.owner.phase in _LIVE_PHASES
                    and out_channels[port].can_send(vc)
                ):
                    requests.append((port, vc, buffer))
            if requests:
                pick = router.rotate(requests[0][0], len(requests))
                winners.append(requests[pick])
            for port, vc, buffer in winners:
                self._transfer(router, port, vc, buffer, now)

    def _transfer(self, router: "Router", port: int, vc: int,
                  buffer: "VCBuffer", now: int) -> None:
        flit = buffer.pop(now)
        message = flit.message
        channel = router.out_channels[port]
        if (
            self.fault_model is not None
            and not channel.is_ejection
            and not channel.is_injection
            and self.fault_model.corrupt(flit, channel, self.rng)
        ):
            flit.corrupted = True
            self.stats.on_fault_injected()
            if self.bus is not None:
                from ..obs.events import FaultActivated

                self.bus.emit(FaultActivated(
                    now, "transient", channel.src_node, channel.dst_node,
                    uid=message.uid,
                ))
        channel.send(vc, flit, now)
        if channel.is_ejection:
            self.nodes[router.node_id].receiver.stage(
                flit, now + channel.latency, channel
            )
        else:
            self._arrival_buffers.add(channel.sinks[vc])
        if flit.is_head and not channel.is_ejection and self.pcs is None:
            # Under PCS the probe acquired the path (and advanced the
            # header routing state) before any data flit moved.
            self.routing.on_header_hop(message, channel)
            sink = channel.sinks[vc]
            sink.acquire(message, now)
            message.segments.append(sink)
        if flit.is_tail:
            buffer.release()
            feeder = buffer.feeder
            if feeder is not None and not feeder.is_injection:
                self.routers[feeder.src_node].release_output_if(
                    feeder.src_port, buffer.vc, message
                )
            message.tail_seg += 1
            if channel.is_ejection:
                router.release_output(port, vc)
            else:
                router.retire_claim(port, vc)
        self.last_progress = now
