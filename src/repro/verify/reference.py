"""The reference engine: this is the spec.

``ReferenceEngine`` runs every phase of the shared cycle loop
(``repro.network.engine``) as a plain sweep over every component,
through the components' own methods -- one body per phase, written to
be read.  It is what ``SimConfig(engine="reference")`` builds, the only
engine that runs PCS probe circuits and the software-retry layer, and
the engine ``repro.verify.mutations`` plants its bugs on (two of them
patch ``_transfer``, below).

The product, ``repro.network.fastengine.FastEngine``, is checked
against it flit for flit: by ``repro.verify.equivalence`` (event
stream, report and channel state of one config under both), by the
per-cycle lockstep oracles in ``tests/network/``, and by
``tools/traffic_golden.py --check`` against digests recorded from this
engine in ``tests/golden/traffic.json``.  The seeded draws (``rng``)
and the output choice (``selection``) are constructor state of the
base, so a harness that enumerates them replaces them here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from ..core.pcs import PCSManager
from ..core.protocol import KillCause, ProtocolMode
from ..network.engine import _LIVE_PHASES, Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.buffer import VCBuffer
    from ..network.message import Message


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
                self.mark_progress(now)
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
        pending = list(self.route_pending)
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
        from ..routing.base import Candidate

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
            choice = self.selection.pick(free, router, message, self.rng)
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
            by_port: Dict[int, List] = {}
            for (port, vc), buffer in claims.items():
                if not buffer.fifo:
                    continue
                owner = buffer.owner
                if owner is None or owner.phase not in _LIVE_PHASES:
                    continue
                if not router.out_channels[port].can_send(vc):
                    continue
                by_port.setdefault(port, []).append((vc, buffer))
            if not by_port:
                continue
            used_inputs: Set[int] = set()
            for port in sorted(by_port):
                entries = [
                    (vc, buffer)
                    for vc, buffer in by_port[port]
                    if buffer.port not in used_inputs
                ]
                if not entries:
                    continue
                # Full deterministic tie-break: out-VC, then input port
                # and input VC, so equal-priority entries never fall
                # back to dict insertion order (trace diffs between
                # engine implementations must be order-stable).
                entries.sort(key=lambda e: (e[0], e[1].port, e[1].vc))
                vc, buffer = entries[router.rotate(port, len(entries))]
                used_inputs.add(buffer.port)
                self._transfer(router, port, vc, buffer, now)

    def _transfer(self, router, port: int, vc: int, buffer, now: int) -> None:
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
            self.note_arrival(channel.sinks[vc])
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
        self.mark_progress(now)
