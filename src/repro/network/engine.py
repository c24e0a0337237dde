"""The cycle loop both engines share: drives every component in lockstep.

``Engine`` is the base of ``repro.network.fastengine.FastEngine`` (the
product) and ``repro.verify.reference.ReferenceEngine`` (the spec): the
construction-time state, message admission and the component hooks,
the loops, the monitors, and the one *phase table* -- an ordered tuple
of ``(profiler phase name, callable(now))`` built by
:meth:`Engine._phase_table`, each name bound to a method the concrete
engine defines.  A cycle walks the table over state as of the cycle
start (arrivals and credits are staged with latency, so intra-cycle
evaluation order cannot leak information).  The table's names, in the
table's order (``repro.obs.profile.PHASES`` minus ``idle``):

1.  credit     -- due credits become spendable,
2.  fault      -- the fault model's per-cycle sweep (when attached),
3.  arrival    -- in-flight flits land in buffers (corrupted headers
                  trigger router kills under FCR),
4.  ejection   -- receivers consume ejected flits, deliver / FKILL,
5.  kill       -- flush one worm segment per dying message,
6.  traffic    -- new messages enter node queues; the software-retry
                  layer ticks (when either is attached),
7.  injection  -- injectors start/stream/stall-count/kill; PCS probes,
8.  routing    -- blocked headers try to claim output VCs,
9.  switch     -- one flit per physical channel moves,
10. monitor    -- the E10 path-wide timeout, the E19 drop-at-block
                  baseline, and the watchdog (a wedged network),
11. sampler    -- the interval sampler's window close (when attached),
12. checker    -- the invariant checker's sweep (when attached).

The watchdog is a simulator safety net, not part of CR.  It fires after
``watchdog`` cycles without progress, and a message waiting out a
backoff gap makes none.  So with CR/FCR it stays quiet only while the
interval exceeds the longest backoff gap (``(2**6 - 1) * 16 = 1008``
cycles at the defaults) plus the source timeout; the default, 20000,
does.  A shorter interval can report a network that is only waiting.
With naive adaptive routing and PLAIN injection it fires quickly --
that *is* the deadlock CR breaks, and the deadlock-demonstration example
relies on it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..core.guarantees import DeliveryLedger
from ..core.kill import KillManager
from ..core.node import Node
from ..core.protocol import KillCause, MessagePhase, ProtocolConfig, ProtocolMode
from ..stats.collector import StatsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.model import FaultModel
    from ..network.buffer import VCBuffer
    from ..network.message import Message
    from ..workload.generator import WorkloadGenerator
    from .network import WormholeNetwork

_LIVE_PHASES = (MessagePhase.INJECTING, MessagePhase.COMMITTED)

#: one entry of a phase table: (profiler phase name, callable(now)).
Phase = Tuple[str, Callable[[int], None]]


class NetworkDeadlockError(RuntimeError):
    """The network made no progress for the watchdog interval.

    ``report`` carries a :class:`repro.obs.forensics.DeadlockReport`
    (wait-for graph, occupancy snapshot, stalled injectors, recent
    events) built at the moment the watchdog fired.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class OrderedSet:
    """Insertion-ordered set over an ordered dict.

    Plain ``set`` iteration order depends on object id() values, which
    vary run to run; everything the engine iterates must be ordered so
    that a seeded run is bit-for-bit reproducible.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: Dict[object, None] = {}

    def add(self, item) -> None:
        self._items[item] = None

    def discard(self, item) -> None:
        self._items.pop(item, None)

    def __contains__(self, item) -> bool:
        return item in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class Engine:
    """Owns all mutable simulation state and the main loop; a concrete
    engine adds the seven phase bodies ``_phase_table`` names."""

    def __init__(
        self,
        network: "WormholeNetwork",
        protocol: Optional[ProtocolConfig] = None,
        seed: int = 0,
        stats: Optional[StatsCollector] = None,
        fault_model: Optional["FaultModel"] = None,
        generator: Optional["WorkloadGenerator"] = None,
        watchdog: int = 20000,
        queue_cap: int = 64,
    ) -> None:
        self.network = network
        self.topology = network.topology
        self.routing = network.routing
        self.routers = network.routers
        self.num_vcs = network.num_vcs
        self.protocol = protocol or ProtocolConfig()
        #: every draw the network and the interfaces make (a workload
        #: generator and cascading faults seed their own).
        self.rng = random.Random(seed)
        self.stats = stats or StatsCollector(self.topology.num_nodes)
        self.ledger = DeliveryLedger(
            expect_integrity=self.protocol.mode is ProtocolMode.FCR
        )
        self.fault_model = fault_model
        self.generator = generator
        self.watchdog = watchdog
        self.now = 0
        self.last_progress = 0
        self.kills = KillManager(self)
        #: the PCS probe manager: the reference engine's, under PCS.
        self.pcs = None
        # Ordered sets (insertion-ordered dicts): iteration order must be
        # deterministic for reproducible runs, which id()-hashed sets are
        # not across processes.
        self.route_pending: "OrderedSet[VCBuffer]" = OrderedSet()
        self._arrival_buffers: "OrderedSet[VCBuffer]" = OrderedSet()
        self.live: Set[int] = set()
        self.injecting: "OrderedSet[Message]" = OrderedSet()
        # Every message with a worm in the network (including committed
        # ones still draining) -- scanned by the path-wide monitor.
        self.in_flight: "OrderedSet[Message]" = OrderedSet()
        self.nodes: List[Node] = [
            Node(
                node,
                network.injection_channels[node],
                self,
                queue_cap=queue_cap,
                order_preserving=self.protocol.order_preserving,
            )
            for node in range(self.topology.num_nodes)
        ]
        self._all_channels = network.all_channels()
        self._pair_seq: Dict[tuple, int] = {}
        # Observability (repro.obs): both stay None unless attached, so
        # untraced runs pay one is-None check per potential emit site.
        self.bus = None
        self.sampler = None
        # Invariant checking (repro.verify): same guard discipline;
        # armed by SimConfig(verify=...).
        self.checker = None
        # Optional application-layer reliability protocol (the software
        # retry baseline); set via SoftwareReliability.attach().
        self.reliability = None
        # Self-profiling (repro.obs.profile): same guard discipline --
        # one is-None check per cycle hands the table to the timed walk.
        self.profiler = None
        # Alert rules engine (repro.obs.alerts) and telemetry publisher
        # (repro.obs.server): both ride the sampler's listener list, so
        # the per-cycle path never touches them; the attributes exist so
        # exporters and reports can find them on any engine.
        self.alerts = None
        self.telemetry = None
        # Workload delivery hook (repro.workload): object with
        # on_delivered(message, now), called by receivers when a whole
        # message arrives -- how client-server replies get scheduled.
        self.delivery_listener = None

    # ------------------------------------------------------------------
    # Message admission (traffic generators and examples use this)
    # ------------------------------------------------------------------

    def next_seq(self, src: int, dst: int) -> int:
        """Per-pair sequence number (order-preservation bookkeeping)."""
        key = (src, dst)
        seq = self._pair_seq.get(key, 0)
        self._pair_seq[key] = seq + 1
        return seq

    def admit(self, message: "Message") -> bool:
        """Offer a message to its source node's queue.

        Returns False when the queue is full (blocked source); the
        message is then discarded and does not count as offered traffic.
        """
        node = self.nodes[message.src]
        if not node.enqueue(message):
            self.stats.on_generation_blocked()
            return False
        self.stats.on_created(message, self.now)
        if self.bus is not None:
            from ..obs.events import MessageCreated

            self.bus.emit(MessageCreated(
                self.now, message.uid, message.src, message.dst,
                message.payload_length,
            ))
        self.live.add(message.uid)
        if self.reliability is not None:
            self.reliability.on_admitted(message, self.now)
        return True

    # ------------------------------------------------------------------
    # Engine hooks used by interfaces and the kill manager
    # ------------------------------------------------------------------

    def note_arrival(self, buffer: "VCBuffer") -> None:
        self._arrival_buffers.add(buffer)

    def mark_progress(self, now: int) -> None:
        self.last_progress = now

    def abort_injection(self, message: "Message") -> None:
        for injector in self.nodes[message.src].injectors:
            injector.abort(message)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, cycles: int) -> None:
        table = self._phase_table()
        remaining = cycles
        while remaining > 0:
            remaining -= self._advance(table, remaining)

    def run_until_drained(self, max_cycles: int) -> bool:
        """Run with generation off until no work remains.

        "Drained" means no live messages in the network *and* no
        outstanding obligations in an attached reliability layer (which
        may still owe retransmissions after the network goes quiet).
        Returns True if drained, False on the cycle budget.
        """
        generator = self.generator
        # Stochastic generators are silenced during the drain; a trace
        # replay that still owes arrivals (full queues made it slip) is
        # part of the workload and keeps running.
        replaying = getattr(generator, "exhausted", None) is False
        if not replaying:
            self.generator = None
        try:
            table = self._phase_table()
            remaining = max_cycles
            while remaining > 0:
                if self._drained():
                    return True
                remaining -= self._advance(table, remaining)
            return self._drained()
        finally:
            self.generator = generator

    def _drained(self) -> bool:
        if self.live:
            return False
        if getattr(self.generator, "exhausted", True) is False:
            return False  # a trace replay still owes arrivals
        return self.reliability is None or not self.reliability.outstanding

    def step(self) -> None:
        self._cycle(self._phase_table())

    def _phase_table(self) -> Tuple[Phase, ...]:
        """The cycle's phases, in order, for the hooks armed right now.

        Built on entry to ``run`` / ``run_until_drained`` / a bare
        ``step()``; an unarmed hook (``fault_model``, ``generator`` and
        ``reliability``, ``sampler``, ``checker``) contributes no
        entry, and a name appears at most once, so a profiled phase is
        recorded exactly once per cycle or not at all.  Hooks are fixed
        for the duration of a call: nothing in the package assigns one
        while cycles run (``run_until_drained`` silences the generator
        *before* it builds its table), and instance patches land on
        methods the phases look up per call, never on a phase itself.
        """
        table: List[Phase] = [("credit", self._tick_credits)]
        if self.fault_model is not None:
            table.append(("fault", self._fault_sweep))
        table += [
            ("arrival", self._merge_arrivals),
            ("ejection", self._eject),
            ("kill", self.kills.advance),
        ]
        if self.generator is not None or self.reliability is not None:
            table.append(("traffic", self._traffic))
        table += [
            ("injection", self._inject),
            ("routing", self._route_headers),
            ("switch", self._switch),
            ("monitor", self._monitors),
        ]
        if self.sampler is not None:
            table.append(("sampler", self.sampler.on_cycle))
        if self.checker is not None:
            table.append(("checker", self.checker.on_cycle_end))
        return tuple(table)

    def _cycle(self, table: Tuple[Phase, ...]) -> None:
        """Run ``table`` at the current cycle, then advance the clock.

        The only place phases are invoked in order; an armed profiler
        walks the same tuple with a clock bracket per entry.
        """
        now = self.now
        if self.profiler is None:
            for _, phase in table:
                phase(now)
        else:
            self.profiler.timed_cycle(table, now)
        self.now = now + 1

    def _advance(self, table: Tuple[Phase, ...], limit: int) -> int:
        """One cycle, or one skipped span of at most ``limit`` cycles."""
        skipped = self._skip(table, limit)
        if skipped:
            return skipped
        self._cycle(table)
        return 1

    def _skip(self, table: Tuple[Phase, ...], limit: int) -> int:
        """Cycles elided ahead of the next stepped one: none, unless
        the concrete engine knows how (the reference steps them all)."""
        return 0

    # ------------------------------------------------------------------
    # The two phases both engines run unchanged
    # ------------------------------------------------------------------

    def _traffic(self, now: int) -> None:
        if self.generator is not None:
            self.generator.tick(self, now)
        if self.reliability is not None:
            self.reliability.tick(now)

    def _monitors(self, now: int) -> None:
        self._path_wide_monitor(now)
        self._drop_at_block_monitor(now)
        self._watchdog_check(now)

    # ------------------------------------------------------------------
    # Path-wide timeout (E10 ablation)
    # ------------------------------------------------------------------

    def _path_wide_monitor(self, now: int) -> None:
        monitor = self.protocol.path_wide
        if monitor is None or not self.in_flight:
            return
        for message in list(self.in_flight):
            for buffer in message.active_segments:
                if monitor.stalled(buffer.last_advance, now):
                    # A router only sees local stalling; it cannot tell a
                    # potential deadlock from sink contention, nor an
                    # uncommitted worm from a committed one.
                    self.kills.initiate(
                        message,
                        KillCause.PATH_TIMEOUT,
                        backward=False,
                        now=now,
                        allow_committed=True,
                    )
                    break

    # ------------------------------------------------------------------
    # Drop-at-block monitor (E19 baseline: BBN Butterfly lineage)
    # ------------------------------------------------------------------

    def _drop_at_block_monitor(self, now: int) -> None:
        threshold = self.protocol.drop_at_block
        if threshold is None or not self.in_flight:
            return
        for message in list(self.in_flight):
            segments = message.active_segments
            if not segments:
                continue
            head_buffer = segments[-1]
            stalled_since = head_buffer.route_stall_since
            if (
                stalled_since is not None
                and now - stalled_since >= threshold
            ):
                # The blocking router rejects the message outright; the
                # sender (which keeps a copy until delivery, as the BBN
                # software did) retransmits after a gap.
                self.kills.initiate(
                    message,
                    KillCause.DROP_AT_BLOCK,
                    backward=False,
                    now=now,
                    allow_committed=True,
                )

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------

    def _watchdog_check(self, now: int) -> None:
        if not self.live:
            self.last_progress = now
            return
        if now - self.last_progress > self.watchdog:
            from ..obs.forensics import build_deadlock_report

            in_flight = sum(
                1 for m in self.injecting if m.phase in _LIVE_PHASES
            )
            report = build_deadlock_report(self, now)
            raise NetworkDeadlockError(
                f"no progress for {self.watchdog} cycles at t={now}: "
                f"{len(self.live)} live messages, {in_flight} injecting "
                f"({self.routing.name} routing, "
                f"{self.protocol.mode.value} protocol)\n"
                + report.format(),
                report=report,
            )
