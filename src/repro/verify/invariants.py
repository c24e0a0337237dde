"""Runtime protocol-invariant checking: the simulator's conscience.

The paper's correctness argument rests on conservation laws the code
never used to check mechanically: flits are neither created nor
destroyed except at the interfaces, credit counters mirror downstream
occupancy exactly, a kill wavefront frees *every* resource the worm
held, and once a tail leaves the source the padding lemma guarantees
delivery.  :class:`InvariantChecker` makes those laws executable.

The layer is opt-in and threaded through the engine exactly like
``repro.obs``: ``engine.checker`` stays ``None`` unless
``SimConfig(verify=...)`` arms it, so unverified runs pay one
``is None`` test per hook site (see ``benchmarks/bench_overhead.py``
for the asserted budget).  The hook sites are:

* ``Engine.step``            -- interval checks (conservation, credits,
                                liveness) every ``check_interval`` cycles,
* ``Receiver.process``       -- counts flits leaving the network,
* ``KillManager._flush_segment`` -- counts flits reclaimed by kills,
* ``KillManager._complete``  -- kill-protocol postcondition,
* ``Injector._commit``       -- padding-theorem postcondition,
* ``run_simulation``         -- final sweep, the latency floor of every
                                delivery, post-drain quiescence.

A violated invariant raises :class:`InvariantViolation` carrying the
same :class:`~repro.obs.forensics.DeadlockReport` bundle the watchdog
produces, so a failed check is immediately debuggable.

The checkers themselves are validated by the mutation registry in
:mod:`repro.verify.mutations`: each seeded protocol bug must be caught
by at least one invariant (see ``tests/verify/test_mutations.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from ..core.padding import cr_wire_length
from ..core.protocol import ProtocolMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine
    from ..network.message import Message
    from ..obs.forensics import DeadlockReport


@dataclass(frozen=True)
class VerifyConfig:
    """How often an armed checker sweeps, and what it plants.

    An armed checker checks every invariant.  ``mutation`` names a
    seeded protocol bug from :mod:`repro.verify.mutations` to inject at
    build time (the differential oracle: a mutated run must trip a
    checker, an unmutated run must not).
    """

    #: cycles between whole-network sweeps (conservation + credits +
    #: liveness); event-driven checks (padding, kill) run at each event.
    check_interval: int = 64
    #: cycles without progress before the liveness checker fires;
    #: ``None`` derives half the engine watchdog (so the typed violation
    #: beats the generic ``NetworkDeadlockError``).
    progress_limit: Optional[int] = None
    #: seeded protocol bug to inject (repro.verify.mutations name).
    mutation: Optional[str] = None

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.progress_limit is not None and self.progress_limit < 1:
            raise ValueError("progress_limit must be >= 1")

    @classmethod
    def coerce(
        cls, value: Union[None, bool, "VerifyConfig"]
    ) -> Optional["VerifyConfig"]:
        """Normalise ``SimConfig.verify``: None/False -> off, True -> all."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"verify must be None, a bool, or a VerifyConfig; "
            f"got {value!r}"
        )


def latency_floor(
    hops: int, wire_length: int, channel_latency: int, pcs: bool
) -> int:
    """Fewest cycles from an attempt's first injected flit to delivery.

    The wormhole pipeline: the header crosses ``hops + 2`` channel
    stages (injection, each link, ejection) and the worm trails it by
    ``wire_length - 1`` flits, one per cycle.  PCS first sets up the
    circuit at one cycle per hop whatever the channel latency
    (:class:`~repro.core.pcs.PCSManager`): the probe reserves a hop a
    cycle from its launch cycle on, the destination reserves an
    ejection port the next cycle, and the acknowledgement takes
    ``len(circuit) = hops + 1`` cycles back, so the payload leaves
    ``2 * hops + 1`` cycles late.  A zero-load message meets the floor
    exactly; CR's commit rule (Imin padding outlasts the header's trip)
    rests on this timing.
    """
    floor = (hops + 2) * channel_latency + wire_length - 1
    if pcs:
        floor += 2 * hops + 1
    return floor


class InvariantViolation(AssertionError):
    """A protocol invariant failed, with forensics attached.

    ``invariant`` names the violated law (``conservation``, ``credits``,
    ``kill-protocol``, ``padding``, ``liveness``, ``latency-floor``,
    ``quiescence``);
    ``report`` carries the :class:`~repro.obs.forensics.DeadlockReport`
    snapshot built at the moment of the failure.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        cycle: int,
        report: Optional["DeadlockReport"] = None,
    ) -> None:
        text = f"[{invariant}] t={cycle}: {detail}"
        if report is not None:
            text += "\n" + report.format()
        super().__init__(text)
        self.invariant = invariant
        self.detail = detail
        self.cycle = cycle
        self.report = report


class InvariantChecker:
    """Evaluates the protocol invariants against a live engine."""

    def __init__(self, engine: "Engine", config: VerifyConfig) -> None:
        self.engine = engine
        self.config = config
        # Interface counters: everything that legitimately removes a
        # flit from the network census.
        self.flits_consumed = 0
        self.flits_reclaimed = 0
        # Bookkeeping for summaries / tests.
        self.checks_run = 0
        self.commits_checked = 0
        self.kills_checked = 0
        self._last_check = 0
        self._progress_limit = (
            config.progress_limit
            if config.progress_limit is not None
            else max(256, engine.watchdog // 2)
        )

    # ------------------------------------------------------------------
    # Engine hooks (all guarded by ``engine.checker is not None``)
    # ------------------------------------------------------------------

    def on_cycle_end(self, now: int) -> None:
        if now - self._last_check >= self.config.check_interval:
            self._last_check = now
            self.check_all(now)

    def on_flits_consumed(self, count: int) -> None:
        self.flits_consumed += count

    def on_flits_reclaimed(self, count: int) -> None:
        self.flits_reclaimed += count

    def on_commit(self, message: "Message", now: int) -> None:
        """Padding theorem, checked the cycle the tail leaves the source.

        Two facets: the *static* Imin rule (a CR/FCR worm never commits
        under-padded for its bounded path length) and the *dynamic*
        lemma (at commit the destination has already consumed the
        header -- tail departed implies delivery is in progress).
        """
        mode = self.engine.protocol.mode
        if mode not in (ProtocolMode.CR, ProtocolMode.FCR):
            return
        self.commits_checked += 1
        hops_bound = (
            self.engine.topology.min_distance(message.src, message.dst)
            + 2 * message.misroute_budget
        )
        minimum = cr_wire_length(
            message.payload_length, hops_bound, self.engine.protocol.padding
        )
        if message.wire_length < minimum:
            self._fail(
                "padding",
                f"message {message.uid} committed with wire length "
                f"{message.wire_length} < Imin {minimum} "
                f"(payload {message.payload_length}, "
                f"{hops_bound} bounded hops)",
                now,
            )
        if message.header_consumed_at is None:
            self._fail(
                "padding",
                f"message {message.uid} committed at t={now} but its "
                f"header has not been consumed at node {message.dst} "
                f"(tail departed without the implicit acknowledgement)",
                now,
            )

    def on_kill_complete(self, message: "Message", now: int) -> None:
        """Kill-protocol postcondition: the wavefront freed everything.

        After the last segment is flushed the worm must hold no buffer,
        no output-VC claim, and no flit anywhere along its path (flits
        already staged at the destination receiver are legal -- the
        receiver drops those remnants itself).  The sweep is scoped to
        the worm's own segments and their routers: flits only ever flow
        into buffers the head acquired, so that is the whole reachable
        set -- and it keeps the postcondition O(path), not O(network),
        per kill (see ``benchmarks/bench_overhead.py``).
        """
        self.kills_checked += 1
        routers = []
        for buffer in message.segments:
            if buffer.owner is message:
                self._fail(
                    "kill-protocol",
                    f"kill of message {message.uid} completed but buffer "
                    f"{buffer!r} is still owned by it",
                    now,
                )
            orphans = sum(
                1 for f in buffer.fifo if f.message is message
            ) + sum(
                1 for _, f in buffer.incoming if f.message is message
            )
            if orphans:
                self._fail(
                    "kill-protocol",
                    f"kill of message {message.uid} completed but "
                    f"{orphans} orphaned flit(s) remain in {buffer!r}",
                    now,
                )
            router = buffer.router
            if router is not None and router not in routers:
                routers.append(router)
        for router in routers:
            for (port, vc), owner in router.out_owner.items():
                if owner is message:
                    self._fail(
                        "kill-protocol",
                        f"kill of message {message.uid} completed but it "
                        f"still owns output ({port}, {vc}) at router "
                        f"{router.node_id}",
                        now,
                    )
        if message in self.engine.in_flight or message in self.engine.injecting:
            self._fail(
                "kill-protocol",
                f"killed message {message.uid} still tracked as in flight",
                now,
            )

    def on_run_end(self, drained: bool, now: int) -> None:
        self.check_all(now)
        self._check_latency_floor(now)
        if drained:
            self._check_quiescence(now)

    # ------------------------------------------------------------------
    # Whole-network sweeps
    # ------------------------------------------------------------------

    def check_all(self, now: int) -> None:
        """Conservation + credit accounting + liveness, one sweep."""
        self.checks_run += 1
        self._check_conservation(now)
        self._check_credits(now)
        self._check_liveness(now)

    def _census(self) -> int:
        """Flits resident in the network fabric right now."""
        total = 0
        for router in self.engine.routers:
            for port_buffers in router.in_buffers:
                for buffer in port_buffers:
                    total += len(buffer.fifo) + len(buffer.incoming)
        for node in self.engine.nodes:
            total += len(node.receiver.staging)
        return total

    def _check_conservation(self, now: int) -> None:
        injected = self.engine.stats.counters["flits_injected"]
        resident = self._census()
        accounted = self.flits_consumed + self.flits_reclaimed + resident
        if accounted != injected:
            self._fail(
                "conservation",
                f"flit conservation broken: {injected} injected != "
                f"{self.flits_consumed} consumed + "
                f"{self.flits_reclaimed} reclaimed + {resident} resident "
                f"(delta {accounted - injected:+d})",
                now,
            )

    def _check_credits(self, now: int) -> None:
        """Per-channel credit accounting, against the wired capacity.

        For a link or injection channel VC: spendable credits plus
        credits in flight back plus downstream occupancy equals the
        buffer depth.  For an ejection channel: the same law against the
        receiver staging slots, with occupancy counted at the receiver.
        """
        for channel in self.engine._all_channels:
            if channel.is_ejection:
                receiver = self.engine.nodes[channel.dst_node].receiver
                staged = sum(
                    1 for entry in receiver.staging if entry[2] is channel
                )
                slots = self.engine.protocol.padding.eject_slots
                total = (
                    channel.credits[0]
                    + channel.pending_credits(0)
                    + staged
                )
                if total != slots or channel.credits[0] < 0:
                    self._fail(
                        "credits",
                        f"ejection {channel!r}: credits "
                        f"{channel.credits[0]} + pending "
                        f"{channel.pending_credits(0)} + staged {staged} "
                        f"!= {slots} slots",
                        now,
                    )
                continue
            for vc in range(channel.num_vcs):
                sink = channel.sinks[vc]
                if sink is None:
                    continue
                pending = channel.pending_credits(vc)
                total = channel.credits[vc] + pending + sink.occupancy
                if total != sink.depth or channel.credits[vc] < 0:
                    self._fail(
                        "credits",
                        f"{channel!r} vc {vc}: credits "
                        f"{channel.credits[vc]} + pending {pending} + "
                        f"occupancy {sink.occupancy} != depth "
                        f"{sink.depth}",
                        now,
                    )

    def _check_liveness(self, now: int) -> None:
        engine = self.engine
        if engine.live and now - engine.last_progress > self._progress_limit:
            self._fail(
                "liveness",
                f"no progress for {now - engine.last_progress} cycles "
                f"with {len(engine.live)} live message(s) "
                f"(limit {self._progress_limit}); the protocol's "
                f"recovery guarantee is not advancing the network",
                now,
            )

    def _check_latency_floor(self, now: int) -> None:
        """No delivery beats the pipeline: a faster one skipped a stage."""
        engine = self.engine
        latency = engine.network.channel_latency
        pcs = engine.protocol.mode is ProtocolMode.PCS
        for message in engine.ledger.deliveries:
            hops = engine.topology.min_distance(message.src, message.dst)
            floor = latency_floor(hops, message.wire_length, latency, pcs)
            taken = message.delivered_at - message.inject_start_at
            if taken < floor:
                self._fail(
                    "latency-floor",
                    f"message {message.uid} delivered {taken} cycle(s) "
                    f"after its attempt began, under the pipeline floor "
                    f"{floor} ({hops} hops, wire {message.wire_length})",
                    now,
                )

    def _check_quiescence(self, now: int) -> None:
        """Post-drain: a drained network holds no residual state."""
        engine = self.engine
        for router in engine.routers:
            if router.out_owner or router.claims:
                self._fail(
                    "quiescence",
                    f"drained network but router {router.node_id} still "
                    f"has {len(router.out_owner)} owned output(s) and "
                    f"{len(router.claims)} claim(s)",
                    now,
                )
            for port_buffers in router.in_buffers:
                for buffer in port_buffers:
                    if buffer.occupancy or buffer.owner is not None:
                        self._fail(
                            "quiescence",
                            f"drained network but {buffer!r} holds "
                            f"{buffer.occupancy} flit(s), owner "
                            f"{buffer.owner}",
                            now,
                        )
        for node in engine.nodes:
            if node.receiver.staging or node.receiver.assembly:
                self._fail(
                    "quiescence",
                    f"drained network but node {node.node_id} receiver "
                    f"still stages {len(node.receiver.staging)} flit(s) "
                    f"({len(node.receiver.assembly)} open assemblies)",
                    now,
                )
            if node.queue:
                self._fail(
                    "quiescence",
                    f"drained network but node {node.node_id} still "
                    f"queues {len(node.queue)} message(s)",
                    now,
                )
            for injector in node.injectors:
                if injector.current is not None:
                    self._fail(
                        "quiescence",
                        f"drained network but node {node.node_id} "
                        f"injector still streams message "
                        f"{injector.current.uid}",
                        now,
                    )
        if engine.kills.dying:
            self._fail(
                "quiescence",
                f"drained network but {len(engine.kills.dying)} kill "
                f"wavefront(s) still in progress",
                now,
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Small dict merged into the run report under ``"verify"``."""
        return {
            "checks": self.checks_run,
            "flits_consumed": self.flits_consumed,
            "flits_reclaimed": self.flits_reclaimed,
            "commits_checked": self.commits_checked,
            "kills_checked": self.kills_checked,
        }

    def _fail(self, invariant: str, detail: str, now: int) -> None:
        from ..obs.forensics import build_deadlock_report

        raise InvariantViolation(
            invariant, detail, now, build_deadlock_report(self.engine, now)
        )
