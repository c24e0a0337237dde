"""Pipelined circuit switching (PCS): the fault-tolerant-routing
baseline of Gaughan & Yalamanchili.

The paper's related work: "Gaughan and Yalamanchili enhanced pipelined
circuit switching, a variant of wormhole routing, with backtracking to
provide fault-tolerance."  PCS separates path setup from data transfer:

1. a *probe* advances hop by hop, reserving an output VC and the
   downstream input buffer at each router exactly as a wormhole header
   would -- but carrying no data;
2. when the probe cannot proceed (all productive channels busy, dead,
   or already tried this attempt) it waits ``pcs_wait`` cycles, then
   **backtracks** one hop, releasing the reservation and marking that
   choice tried, and searches an alternative;
3. a probe that backtracks all the way out of the source has exhausted
   the attempt: it releases everything and the message retries after a
   backoff gap;
4. a probe that reaches the destination (and reserves an ejection port)
   completes the circuit; an acknowledgement returns over the reserved
   path (modelled as ``len(circuit)`` cycles), after which the source
   streams the payload down a path that cannot block.

Because data only ever moves on a complete circuit, PCS never deadlocks
on data and never loses or corrupts in-flight payload to a *routing*
fault -- its costs are the round-trip setup latency and the channel
time circuits hold while probes search.  Experiment E20 measures both
against CR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..routing.base import pick
from .protocol import MessagePhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.buffer import VCBuffer
    from ..network.message import Message


class PCSManager:
    """Advances every in-flight probe one step per cycle."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.probes: List["Message"] = []

    # ------------------------------------------------------------------
    # Injector-facing API
    # ------------------------------------------------------------------

    def launch(self, message: "Message") -> None:
        """Register a probe whose injection buffer is already reserved."""
        message.phase = MessagePhase.PROBING
        message.probe_tried = {}
        message.probe_wait = 0
        message.stream_start_at = None
        self.probes.append(message)
        self.engine.stats.counters["probes_launched"] += 1

    # ------------------------------------------------------------------
    # Per-cycle advance
    # ------------------------------------------------------------------

    def step(self, now: int) -> None:
        if not self.probes:
            return
        survivors = []
        for message in self.probes:
            if message.phase is not MessagePhase.PROBING:
                continue  # aborted externally
            if self._advance(message, now):
                survivors.append(message)
        self.probes = survivors

    def _advance(self, message: "Message", now: int) -> bool:
        """One probe step; returns False when the probe leaves PROBING."""
        engine = self.engine
        head = message.segments[-1]
        router = head.router
        if router.node_id == message.dst:
            return not self._complete(message, head, now)
        tried = message.probe_tried.setdefault(router.node_id, set())
        candidates = self._free_candidates(router, message, tried)
        if candidates:
            choice = pick(candidates, engine.rng)
            self._reserve_hop(message, head, choice, now)
            return True
        if self._blocked_forever(router, message, tried):
            self._backtrack(message, head, now)
            return message.phase is MessagePhase.PROBING
        message.probe_wait += 1
        if message.probe_wait >= engine.protocol.pcs_wait:
            self._backtrack(message, head, now)
            return message.phase is MessagePhase.PROBING
        return True

    # ------------------------------------------------------------------
    # Probe mechanics
    # ------------------------------------------------------------------

    def _free_candidates(self, router, message, tried):
        tiers = self.engine.routing.candidates(router, message)
        free = []
        for tier in tiers:
            for cand in tier:
                if cand.port in tried:
                    continue
                if not router.output_free(cand.port, cand.vc):
                    continue
                if router.out_channels[cand.port].dead:
                    continue
                free.append(cand)
            if free:
                break
        return free

    def _blocked_forever(self, router, message, tried) -> bool:
        """True when waiting cannot help: every untried productive
        channel is dead (busy ones may free up; dead ones never will)."""
        tiers = self.engine.routing.candidates(router, message)
        for tier in tiers:
            for cand in tier:
                if cand.port in tried:
                    continue
                if not router.out_channels[cand.port].dead:
                    return False
        return True

    def _reserve_hop(self, message, head: "VCBuffer", choice, now) -> None:
        engine = self.engine
        router = head.router
        if choice.is_misroute:
            # Non-minimal search step (the PCS backtracking-search
            # extension); debit the attempt's misroute budget.
            message.misroutes_used += 1
            engine.stats.counters["misroute_hops"] += 1
        router.claim_output(choice.port, choice.vc, head, message)
        channel = router.out_channels[choice.port]
        engine.routing.on_header_hop(message, channel)
        sink = channel.sinks[choice.vc]
        sink.acquire(message, now)
        message.segments.append(sink)
        message.probe_wait = 0
        engine.mark_progress(now)

    def _complete(self, message, head: "VCBuffer", now) -> bool:
        """Reserve an ejection port; True when the circuit is done."""
        engine = self.engine
        router = head.router
        tried = message.probe_tried.setdefault(router.node_id, set())
        free_ports = [
            port
            for port in router.eject_ports
            if router.output_free(port, 0) and port not in tried
        ]
        if not free_ports:
            message.probe_wait += 1
            if message.probe_wait >= engine.protocol.pcs_wait:
                self._backtrack(message, head, now)
            return message.phase is not MessagePhase.PROBING
        router.claim_output(free_ports[0], 0, head, message)
        # The acknowledgement travels back over the reserved circuit.
        message.stream_start_at = now + len(message.segments)
        message.phase = MessagePhase.INJECTING
        message.probe_wait = 0
        engine.stats.counters["circuits_established"] += 1
        engine.mark_progress(now)
        return True

    def _backtrack(self, message, head: "VCBuffer", now) -> None:
        """Retreat one hop (or fail the attempt at the source)."""
        engine = self.engine
        feeder = head.feeder
        router = head.router
        if head.routed and head.out_port is not None:
            # A dead-end ejection reservation attempt left no claim; a
            # mid-path claim of ours must be dropped before retreating.
            router.release_output_if(head.out_port, head.out_vc, message)
        if feeder is None or feeder.is_injection:
            self._fail_attempt(message, head, now)
            return
        upstream = engine.routers[feeder.src_node]
        upstream.release_output_if(feeder.src_port, head.vc, message)
        head.release()
        message.segments.pop()
        message.probe_tried.setdefault(feeder.src_node, set()).add(
            feeder.src_port
        )
        message.probe_wait = 0
        message.probe_backtracks += 1
        engine.stats.counters["probe_backtracks"] += 1
        engine.mark_progress(now)

    def _fail_attempt(self, message, head: "VCBuffer", now) -> None:
        """The probe searched every path; release and retry later."""
        engine = self.engine
        head.release()
        message.segments.clear()
        message.probe_tried = {}
        message.kills += 1  # escalates the backoff like a CR kill
        message.phase = MessagePhase.QUEUED
        message.retransmit_at = now + engine.protocol.backoff.gap(
            message, engine.rng
        )
        engine.stats.counters["probe_failures"] += 1
        engine.injecting.discard(message)
        engine.in_flight.discard(message)
        engine.abort_injection(message)
        engine.nodes[message.src].queue.insert(0, message)
        engine.mark_progress(now)
