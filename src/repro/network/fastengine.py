"""The fast engine: identical protocol behaviour, far fewer cycles.

``FastEngine`` is the product engine, what ``SimConfig.build()`` makes
unless told ``engine="reference"``, and what a hand-built
``WormholeNetwork`` runs on.  The contract: a run is *flit-for-flit
identical* to the same run on the spec,
``repro.verify.reference.ReferenceEngine`` -- same events, same
reports, same channel state, same RNG draw sequence.  Both walk the one
phase table through the one set of loops in ``repro.network.engine``;
this class binds its own bodies to the table's names, each narrowed to
where work can exist, and plugs event skipping into the loops' ``_skip``
hook.  All protocol components (injectors, receivers, kill manager,
routers, channels) are shared with the spec.

The mechanisms -- the credit ledger, activity sets, the memoised
routing relation, event skipping and the paced loop, change stamps, the
two-stage hop (arbitrate, then move) with direct landing and direct
credit return -- are described once, each with the invariant it relies
on and the oracle that pins it, in docs/SIMULATOR.md, "The fast
engine".  The comments below say only what a body mirrors.

The engine has one mode.  What it does not run -- PCS probe circuits,
an attached software-retry reliability layer -- it refuses with
:class:`FastEngineRefusal`, and ``SimConfig.build()`` hands those
configurations to the reference engine.  Its hot paths are the
components' methods inlined, so a patch planted on an engine, injector,
receiver or routing *instance* is not seen: build ``engine="reference"``
to patch anything (``repro.verify``'s mutations are planted there).
Hooks the inlined bodies look up on every call --
``routing.on_header_hop``, an overridden ``fault_model.corrupt`` --
still are.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core.injector import INJECTION_SCAN_WINDOW
from ..core.kill import KillManager
from ..core.protocol import KillCause, ProtocolMode
from ..core.timeout import FixedTimeout, LengthScaledTimeout
from ..routing.base import Candidate, pick
from ..routing.dor import DimensionOrder
from ..routing.minimal_adaptive import MinimalAdaptive
from ..routing.misrouting import MisroutingAdaptive
from .channel import Channel
from .engine import Engine, Phase, _LIVE_PHASES
from .flit import Flit, FlitKind


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.injector import Injector
    from ..core.node import Node
    from ..network.buffer import VCBuffer
    from ..network.message import Message
    from ..network.router import ClaimRecord, Router

_INF = float("inf")
_HEAD = FlitKind.HEAD
_BODY = FlitKind.BODY
_PAD = FlitKind.PAD


class FastEngineRefusal(TypeError):
    """Asked of the fast engine what only the reference engine runs."""

    def __init__(self, what: str) -> None:
        super().__init__(
            f'the fast engine does not run {what}: build engine="reference" '
            f"(SimConfig.build() does, for a configuration that needs it)"
        )


class CreditLedger:
    """Credit returns bucketed by due cycle, as ``Channel.return_credit``
    registers them with the ledger a fast engine gave the channel.

    ``drain(now)`` ticks only the channels holding a credit due at
    ``now`` — the engine never sweeps the full channel list.
    ``drain_range(upto)`` settles a skipped span in one call.  Both
    release through ``Channel.tick`` itself: the ledger decides only
    *which* channels tick, never how a credit is released.  A channel
    is listed once per credit it has due, so it may tick twice; the
    second tick finds nothing due.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Channel]] = {}

    def register(self, due: int, channel: Channel) -> None:
        bucket = self._buckets.get(due)
        if bucket is None:
            self._buckets[due] = [channel]
        else:
            bucket.append(channel)

    def drain(self, now: int) -> None:
        """Release the credits due exactly at ``now``."""
        for channel in self._buckets.pop(now, ()):
            channel.tick(now)

    def drain_range(self, upto: int) -> None:
        """Release every credit due at or before ``upto`` (skip close)."""
        for due in [due for due in self._buckets if due <= upto]:
            for channel in self._buckets.pop(due):
                channel.tick(upto)


def channel_state(engine: Engine) -> Dict[str, list]:
    """A struct-of-arrays snapshot of all channel state for an engine.

    Returns ``{"credits", "flits_carried", "pending"}`` as plain lists,
    one entry per channel (``credits`` a row per channel, padded with
    -1 to the widest channel's VC count).  Two runs are channel-state
    identical iff the snapshots compare ``==`` — the flat form the
    differential tests diff without walking object graphs, and what the
    traffic digests serialise.  The lists are the reference engine's at
    every cycle boundary: credits the fast engine's last cycle returned
    directly, which the reference holds until the coming credit phase,
    are put back in flight in the copy returned.
    """
    channels = engine._all_channels
    max_vcs = max(ch.num_vcs for ch in channels) if channels else 0
    credits_rows = [
        list(ch.credits) + [-1] * (max_vcs - ch.num_vcs) for ch in channels
    ]
    carried = [ch.flits_carried for ch in channels]
    pending = [len(ch._pending) for ch in channels]
    due, moves = getattr(engine, "_returned", (None, ()))
    if due == engine.now:
        row_of = {ch: row for row, ch in enumerate(channels)}
        for _, _, buffer, _, _, _ in moves:
            feeder = buffer.feeder
            if feeder is not None and feeder.latency == 1:
                row = row_of[feeder]
                credits_rows[row][buffer.vc] -= 1
                pending[row] += 1
    return {
        "credits": credits_rows,
        "flits_carried": carried,
        "pending": pending,
    }


class RoutingTable:
    """Memoised routing relation lookups for the known-pure relations.

    Caches the *actual output* of ``routing.candidates`` under keys
    that capture every message-dependent input of the relation:

    * minimal adaptive (and its naive twin): ``(node, dst)``;
    * dimension-order: ``(node, dst, lane)`` plus the dateline state
      when dateline VCs are in play;
    * misrouting-adaptive with an exhausted budget: ``(node, dst)``
      (the relation then reduces to minimal); with budget remaining it
      reads live channel-death state, so those calls stay live.

    Any other relation is called live every time.  The relation is
    classified once, by the class that defines ``candidates``.
    """

    __slots__ = ("routing", "_kind", "_cache")

    def __init__(self, routing) -> None:
        self.routing = routing
        self._cache: Dict[tuple, List[List[Candidate]]] = {}
        impl = type(routing).candidates
        if impl is MisroutingAdaptive.candidates:
            self._kind = "misroute"
        elif impl is MinimalAdaptive.candidates:
            self._kind = "minimal"
        elif impl is DimensionOrder.candidates:
            self._kind = "dor"
        else:
            self._kind = "live"

    def candidates(
        self, router: "Router", message: "Message"
    ) -> List[List[Candidate]]:
        kind = self._kind
        routing = self.routing
        if kind == "minimal":
            key = (router.node_id, message.dst)
        elif kind == "dor":
            lane = message.lane % routing.num_lanes(router.num_vcs)
            if routing.vc_classes == 2:
                key = (
                    router.node_id,
                    message.dst,
                    lane,
                    message.dor_dim,
                    message.dateline_bit,
                )
            else:
                key = (router.node_id, message.dst, lane)
        elif kind == "misroute":
            if message.misroutes_used < message.misroute_budget:
                # Budget remaining: the detour tier depends on live
                # channel-death state, so ask the relation directly.
                return routing.candidates(router, message)
            key = (router.node_id, message.dst)
        else:
            return routing.candidates(router, message)
        tiers = self._cache.get(key)
        if tiers is None:
            tiers = routing.candidates(router, message)
            self._cache[key] = tiers
        return tiers


class _FastKillManager(KillManager):
    """KillManager that re-activates a node when a retry is requeued.

    A completed kill wavefront appends the message back onto its source
    node's queue without going through ``Engine.admit``, which is the
    fast engine's only other wake-up point for injection activity.
    """

    def _complete(self, message: "Message", now: int) -> None:
        super()._complete(message, now)
        self.engine._active_inj.add(message.src)


class FastEngine(Engine):
    """Event-skipping engine, flit-for-flit identical to
    ``repro.verify.reference.ReferenceEngine``; see the module docstring
    for the contract and docs/SIMULATOR.md for the mechanisms."""

    def __init__(self, network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        # Same construction-time state, plus a kill manager that wakes
        # the source node when a killed message is requeued.
        self.kills = _FastKillManager(self)
        self._table = RoutingTable(self.routing)
        self.credit_ledger = CreditLedger()
        if self.protocol.mode is ProtocolMode.PCS:
            # Probes create claims outside _grant, where no activity set
            # sees them.
            raise FastEngineRefusal("PCS probe circuits")
        for chan in self._all_channels:
            chan.ledger = self.credit_ledger
        #: the credit phase: only the channels with a credit due now.
        self._tick_credits = self.credit_ledger.drain
        # Direct handles on the OrderedSet backing dicts for the
        # inlined transfer/injection pipelines.
        self._arrival_items: Dict["VCBuffer", None] = \
            self._arrival_buffers._items
        self._route_items = self.route_pending._items
        self._active_recv: Set[int] = set()
        self._active_inj: Set[int] = set()
        self._active_switch: Set[int] = set()
        #: cycles elided by event skipping (diagnostics / benchmarks).
        self.cycles_skipped = 0
        #: bumped whenever channel-death state may have changed.
        self._fault_epoch = 0
        #: stall count at which each stalled injector's timeout fires.
        self._stall_limits: Dict["Injector", float] = {}
        #: the headers, as ``(sink, flit)``, among the flits ``_move`` has
        #: landed directly since the last arrival phase; None: no flit.
        self._landed: Optional[List[Tuple["VCBuffer", Flit]]] = None
        #: the last inlined ``_move``'s records and the cycle whose credit
        #: phase would have released the credits it returned directly.
        self._returned: Tuple[int, List["ClaimRecord"]] = (0, [])

    # ------------------------------------------------------------------
    # Activity bookkeeping
    # ------------------------------------------------------------------

    def _seed_active(self) -> None:
        """Rescan engine state into the activity sets.

        Called where the phase table is built -- on entry to ``run`` /
        ``run_until_drained`` and before any externally driven
        ``step()`` -- so state planted between runs (tests enqueue
        messages by hand) is picked up.
        """
        self._active_recv = {
            node.node_id for node in self.nodes if node.receiver.staging
        }
        self._active_switch = {
            router.node_id for router in self.routers if router.claims
        }
        active_inj = set()
        for node in self.nodes:
            if node.queue or any(
                injector.current is not None for injector in node.injectors
            ):
                active_inj.add(node.node_id)
        self._active_inj = active_inj

    def admit(self, message: "Message") -> bool:
        admitted = Engine.admit(self, message)
        if admitted:
            self._active_inj.add(message.src)
        return admitted

    # ------------------------------------------------------------------
    # Arrivals: inlined single-flit merge (the overwhelmingly common
    # case with unit channel latency)
    # ------------------------------------------------------------------

    def _merge_arrivals(self, now: int) -> None:
        items = self._arrival_items
        heads, self._landed = self._landed, None
        if not items and heads is None:
            return
        # One pass: take the set, clear it, and put back only a buffer
        # with a flit still in flight (channel latency > 1).  Survivors
        # keep their relative order and later arrivals land behind
        # them -- the order that discarding the others would leave.
        buffers = list(items)
        items.clear()
        landed = heads is not None
        for buffer in buffers:
            incoming = buffer.incoming
            if len(incoming) == 1:
                due, flit = incoming[0]
                if due > now:
                    items[buffer] = None
                    continue
                del incoming[0]
                buffer.fifo.append(flit)
                landed = True
                if flit.kind is _HEAD:
                    self._header_landed(buffer, flit, now)
                continue
            for flit in buffer.merge_incoming(now):
                landed = True
                if flit.kind is _HEAD:
                    self._header_landed(buffer, flit, now)
            if buffer.incoming:
                items[buffer] = None
        # Directly landed flits arrive now: after the staged ones, as
        # link sinks stand in the reference's arrival set, in move order.
        for buffer, flit in heads or ():
            self._header_landed(buffer, flit, now)
        if landed:
            self.last_progress = now

    def _header_landed(self, buffer: "VCBuffer", flit: Flit, now: int) -> None:
        message = flit.message
        if message.phase not in _LIVE_PHASES:
            return
        if flit.corrupted and self.protocol.mode is ProtocolMode.FCR:
            # Per-flit check code fails at the router: backward kill.
            self.kills.initiate(
                message, KillCause.HEADER_FAULT, backward=True, now=now
            )
        else:
            self._route_items[buffer] = None

    # ------------------------------------------------------------------
    # Routing: memoised relation, same grant logic
    # ------------------------------------------------------------------

    def _route_headers(self, now: int) -> None:
        # Reference body with the head() calls and OrderedSet discards
        # inlined; the shuffle draw is unchanged.
        route_items = self._route_items
        if not route_items:
            return
        pending = list(route_items)
        if len(pending) > 1:
            self.rng.shuffle(pending)
        pop = route_items.pop
        epoch = self._fault_epoch
        for buffer in pending:
            fifo = buffer.fifo
            head = fifo[0] if fifo else None
            if head is None or head.kind is not _HEAD:
                pop(buffer, None)
                continue
            if buffer.routed:
                # Already holds an output (a stale queue entry):
                # nothing to allocate.
                pop(buffer, None)
                continue
            message = head.message
            if message.phase not in _LIVE_PHASES:
                pop(buffer, None)
                continue
            # Change stamps: _grant's verdict is a function of header
            # state (fixed while the header is blocked), the router's
            # out_owner (stamp) and channel death (fault epoch).  Both
            # counters only grow, so their sum repeats only when
            # neither moved -- then the attempt is a repeat failure,
            # and a failure draws no randomness (``pick`` draws only
            # from a non-empty free list).
            key = buffer.router.stamp + epoch
            if buffer.route_fail_key == key:
                continue
            if self._grant(buffer, message):
                buffer.route_stall_since = None
                buffer.route_fail_key = None
                pop(buffer, None)
            else:
                buffer.route_fail_key = key
                if buffer.route_stall_since is None:
                    buffer.route_stall_since = now

    def _grant(self, buffer: "VCBuffer", message: "Message") -> bool:
        router = buffer.router
        if router.node_id == message.dst:
            tiers = [[Candidate(port, 0) for port in router.eject_ports]]
        else:
            tiers = self._table.candidates(router, message)
        out_owner = router.out_owner
        out_channels = router.out_channels
        for tier in tiers:
            free = [
                cand
                for cand in tier
                if (cand.port, cand.vc) not in out_owner
                and not out_channels[cand.port].dead
            ]
            if not free:
                continue
            choice = pick(free, self.rng)
            router.claim_output(choice.port, choice.vc, buffer, message)
            self._active_switch.add(router.node_id)
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
    # Switch: only routers holding claims
    # ------------------------------------------------------------------

    def _switch(self, now: int) -> None:
        if self._active_switch:
            self._move(self._arbitrate(), now)

    def _arbitrate(self) -> List["ClaimRecord"]:
        """Switch allocation: every output port's winning claim record,
        in reference transfer order (routers, then ports, ascending)."""
        active = self._active_switch
        routers = self.routers
        live = _LIVE_PHASES
        moves: List["ClaimRecord"] = []
        # Ascending node id matches the reference router order; routers
        # outside the set hold no claims, so the reference loop skips
        # them with zero side effects.
        for node_id in sorted(active):
            router = routers[node_id]
            if not router.claims:
                active.discard(node_id)
                continue
            rr = router._rr
            # Claims are keyed (port, vc), so the records come in the
            # reference's arbitration order: ports ascending, VCs
            # within.  A port's requesters are adjacent: the lone one
            # -- the usual case -- stays in ``first``, ``rest`` exists
            # once a second appears, and the winner's input port has
            # its bit in used_inputs before the next port's requesters
            # are filtered.
            used_inputs = 0
            cur_port = -1
            first = rest = None
            for record in router._order or router.claim_order():
                port, vc, buffer, fifo, channel, credits = record
                if credits[vc] <= 0 or not fifo or channel.dead:
                    continue
                owner = buffer.owner
                if owner is None or owner.phase not in live:
                    continue
                if port != cur_port:
                    if first is not None:
                        if rest is None:
                            rr[cur_port] = 1  # rotate(cur_port, 1)
                        else:
                            first = rest[router.rotate(cur_port, len(rest))]
                            rest = None
                        used_inputs |= 1 << first[2].port
                        moves.append(first)
                        first = None
                    cur_port = port
                if used_inputs >> buffer.port & 1:
                    continue
                if first is None:
                    first = record
                elif rest is None:
                    rest = [first, record]
                else:
                    rest.append(record)
            if first is not None:
                if rest is None:
                    rr[cur_port] = 1
                else:
                    first = rest[router.rotate(cur_port, len(rest))]
                moves.append(first)
        return moves

    def _move(self, moves: List["ClaimRecord"], now: int) -> None:
        """Switch traversal: one flit through each arbitrated output.

        ``ReferenceEngine._transfer`` + ``VCBuffer.pop`` +
        ``Channel.send`` + ``Receiver.stage`` in one loop body, every
        branch mirroring the reference methods.  Hoisted lookups are
        redone on every call.
        """
        arrival_items = self._arrival_items
        fault_model = self.fault_model
        # A model that says it never corrupts is not asked per flit.
        asked = fault_model is not None and fault_model.corrupts()
        corrupt = fault_model.corrupt if asked else None
        on_header_hop = self.routing.on_header_hop
        heads, landed = [], False
        for port, vc, buffer, fifo, channel, credits in moves:
            # VCBuffer.pop
            flit = fifo.popleft()
            buffer.last_advance = now
            feeder = buffer.feeder
            if feeder is not None:
                if feeder.latency == 1:
                    # Direct return: what the next credit phase would do.
                    feeder.credits[buffer.vc] += 1
                else:
                    feeder.return_credit(buffer.vc, now)
            is_ejection = channel.is_ejection
            if (
                corrupt is not None
                and not is_ejection
                and not channel.is_injection
                and corrupt(flit, channel, self.rng)
            ):
                flit.corrupted = True
                self.stats.on_fault_injected()
                if self.bus is not None:
                    from ..obs.events import FaultActivated

                    self.bus.emit(FaultActivated(
                        now, "transient", channel.src_node, channel.dst_node,
                        uid=flit.message.uid,
                    ))
            # Channel.send (credits checked in _arbitrate)
            credits[vc] -= 1
            channel.flits_carried += 1
            if is_ejection:
                node_id = buffer.router.node_id
                # Receiver.stage
                self.nodes[node_id].receiver.staging.append(
                    (now + channel.latency, flit, channel)
                )
                self._active_recv.add(node_id)
            else:
                sink = channel.sinks[vc]
                direct = channel.latency == 1
                if direct:
                    # Direct landing: where arrival would put the flit.
                    sink.fifo.append(flit)
                    landed = True
                else:
                    # VCBuffer.stage + Engine.note_arrival
                    sink.incoming.append((now + channel.latency, flit))
                    arrival_items[sink] = None
                if flit.kind is _HEAD:
                    message = flit.message
                    on_header_hop(message, channel)
                    sink.acquire(message, now)
                    message.segments.append(sink)
                    if direct:
                        heads.append((sink, flit))
            if flit.is_tail:
                message = flit.message
                buffer.release()
                if feeder is not None and not feeder.is_injection:
                    self.routers[feeder.src_node].release_output_if(
                        feeder.src_port, buffer.vc, message
                    )
                message.tail_seg += 1
                if is_ejection:
                    buffer.router.release_output(port, vc)
                else:
                    buffer.router.retire_claim(port, vc)
        if landed:
            self._landed = heads
        self._returned = (now + 1, moves)
        if moves:
            self.last_progress = now

    # ------------------------------------------------------------------
    # The phase table: what is cached across cycles starts over
    # ------------------------------------------------------------------

    def _phase_table(self) -> Tuple[Phase, ...]:
        if self.reliability is not None:
            # Its retry deadlines fall on cycles no wake protocol
            # announces, so a skip would jump them.
            raise FastEngineRefusal("an attached reliability layer")
        self._seed_active()
        # State planted between runs (a test assigning channel.dead)
        # must be seen by everything cached across cycles.
        self._fault_epoch += 1
        self._stall_limits.clear()
        return super()._phase_table()

    def _fault_sweep(self, now: int) -> None:
        # Channel death changes only inside on_cycle, and only on the
        # cycles the model may act (unknown model: any cycle).
        next_event = self.fault_model.next_event(now)
        if next_event is None or next_event <= now:
            self._fault_epoch += 1
        self.fault_model.on_cycle(now, self.network)

    def _stall_limit(self, message: "Message"):
        """Stall count at which ``_check_timeout`` first does anything.

        Fixed for a stall streak (``wire_length`` is set by
        ``begin_attempt``); 0 -- ask every cycle -- unless the policy
        is one of the two known pure ones.
        """
        protocol = self.protocol
        if (
            protocol.mode is ProtocolMode.PLAIN
            or protocol.path_wide is not None
        ):
            return _INF
        timeout = protocol.timeout
        if type(timeout) in (FixedTimeout, LengthScaledTimeout):
            return timeout.threshold(message, self.num_vcs)
        return 0

    def _inject(self, now: int) -> None:
        active = self._active_inj
        if not active:
            return
        arrival_items = self._arrival_items
        limits = self._stall_limits
        flush = self._count_injection
        # injection_stall_cycles, flits_injected, pad_flits_injected
        # are tallied here and added in bulk: flush() before every call
        # that leaves this body, so whatever runs there reads the
        # reference's counters.  injector.stall is never deferred.
        stalls = sent = pads = 0
        # Ascending node id matches the reference node order; inactive
        # nodes (empty queue, idle injectors) step to a no-op there and
        # draw no randomness.
        nodes = self.nodes
        for node_id in sorted(active):
            node = nodes[node_id]
            busy = False
            for injector in node.injectors:
                if injector.current is None:
                    if stalls or sent:
                        stalls = sent = pads = flush(stalls, sent, pads)
                    injector._try_start(now)
                message = injector.current
                if message is None:
                    continue
                # Inlined Injector._try_send, non-PCS streaming path.
                channel = injector.channel
                vc = injector.vc
                credits = channel.credits
                if channel.dead or credits[vc] <= 0:
                    stall = injector.stall = injector.stall + 1
                    stalls += 1
                    # Inside a streak and short of its threshold the
                    # reference does those two increments and nothing
                    # else: the event fired at stall 1 and fires() is a
                    # comparison that fails.
                    if 1 < stall < limits.get(injector, 0):
                        busy = True
                        continue
                    if stall == 1 and self.bus is not None:
                        from ..obs.events import InjectionStalled

                        stalls = sent = pads = flush(stalls, sent, pads)
                        self.bus.emit(
                            InjectionStalled(now, message.uid, message.src)
                        )
                    # The threshold is fixed for the streak: work it
                    # out on the first stalled cycle and leave
                    # _check_timeout alone until the streak reaches it.
                    if stall == 1 or injector not in limits:
                        limits[injector] = self._stall_limit(message)
                    if stall >= limits[injector]:
                        stalls = sent = pads = flush(stalls, sent, pads)
                        injector._check_timeout(message, now)
                    if injector.current is not None:
                        busy = True
                    continue
                index = injector.next_index
                if index == 0:
                    kind = _HEAD
                elif index < message.payload_length:
                    kind = _BODY
                else:
                    kind = _PAD
                is_tail = index == message.wire_length - 1
                flit = Flit(message, kind, index, is_tail)
                # Channel.send (can_send just checked above)
                credits[vc] -= 1
                channel.flits_carried += 1
                sink = channel.sinks[vc]
                sink.incoming.append((now + channel.latency, flit))
                arrival_items[sink] = None  # Engine.note_arrival
                if index == 0:
                    sink.acquire(message, now)
                    message.segments.append(sink)
                if kind is _PAD:
                    message.pad_flits_sent += 1
                    pads += 1
                sent += 1
                message.flits_injected += 1
                self.last_progress = now
                injector.stall = 0
                injector.next_index = index + 1
                if is_tail:
                    stalls = sent = pads = flush(stalls, sent, pads)
                    injector._commit(message, now)
                else:
                    busy = True
            if not busy and not node.queue:
                active.discard(node_id)
        flush(stalls, sent, pads)

    def _count_injection(self, stalls: int, sent: int, pads: int) -> int:
        """Add ``_inject``'s tallies to the run's counters (only
        the ones that moved: a Counter key exists once touched).
        Returns 0, what the caller resets its tallies to."""
        counters = self.stats.counters
        if stalls:
            counters["injection_stall_cycles"] += stalls
        if sent:
            counters["flits_injected"] += sent
        if pads:
            counters["pad_flits_injected"] += pads
        return 0

    def _eject(self, now: int) -> None:
        recv = self._active_recv
        if not recv:
            return
        stats = self.stats
        checker = self.checker
        # flits_ejected: tallied here, added before every call out of
        # this body and at its end (as _inject's three counters).
        ejected = 0
        for node_id in sorted(recv):
            receiver = self.nodes[node_id].receiver
            # Inlined Receiver.process.  Arrival stamps are appended in
            # nondecreasing order, so the common all-ready case is a
            # whole-list take with no rebuild.
            staging = receiver.staging
            if staging and staging[0][0] <= now:
                if staging[-1][0] <= now:
                    ready = staging
                    receiver.staging = []
                else:
                    ready = [e for e in staging if e[0] <= now]
                    receiver.staging = [e for e in staging if e[0] > now]
                ejected += len(ready)
                for _, flit, channel in ready:
                    channel.return_credit(0, now)
                    # _consume is a no-op for an uncorrupted non-head
                    # non-tail flit of a live message (the bulk of a
                    # worm) — skip the call for exactly that case.
                    if (
                        flit.is_tail
                        or flit.corrupted
                        or flit.kind is _HEAD
                        or flit.message.phase not in _LIVE_PHASES
                    ):
                        if ejected:
                            stats.on_flits_ejected(ejected)
                            ejected = 0
                        receiver._consume(flit, now)
                if checker is not None:
                    checker.on_flits_consumed(len(ready))
                self.last_progress = now
            if not receiver.staging:
                recv.discard(node_id)
        if ejected:
            stats.on_flits_ejected(ejected)

    # ------------------------------------------------------------------
    # Event skipping
    # ------------------------------------------------------------------

    def _skip(self, table: Tuple[Phase, ...], limit: int) -> int:
        """Skip to the next cycle where anything can happen.

        Returns the number of cycles elided (0 when the network is not
        quiescent or a cap lands on the current cycle).  Every phase of
        a skipped reference cycle is provably a no-op that draws no
        randomness; see the individual conditions.
        """
        if (
            self.kills.dying
            or self._arrival_buffers
            or self._landed is not None
            or self.route_pending
            or self.in_flight
            or self.injecting
        ):
            return 0
        # Receivers: any staged flit (even a future arrival) keeps the
        # per-cycle loop running.
        recv = self._active_recv
        if recv:
            for node_id in sorted(recv):
                if self.nodes[node_id].receiver.staging:
                    return 0
                recv.discard(node_id)
        # Switch: a surviving output claim means a worm still owns
        # resources somewhere.
        switch = self._active_switch
        if switch:
            for node_id in sorted(switch):
                if self.routers[node_id].claims:
                    return 0
                switch.discard(node_id)
        now = self.now
        # Injection: every active node must be parked — no streaming
        # injector, nothing startable before a known wake cycle.
        wake = _INF
        inj = self._active_inj
        if inj:
            for node_id in sorted(inj):
                node = self.nodes[node_id]
                if any(
                    injector.current is not None
                    for injector in node.injectors
                ):
                    return 0
                if not node.queue:
                    inj.discard(node_id)
                    continue
                node_wake = self._node_wake(node, now)
                if node_wake <= now:
                    return 0
                if node_wake < wake:
                    wake = node_wake
        # Traffic generation and scheduled faults: each input says
        # when it next acts (``skip_state`` / ``next_event``).
        paced = False
        trace_next = _INF
        generator = self.generator
        if generator is not None:
            skip_state = getattr(generator, "skip_state", None)
            if skip_state is None:
                # A generator that does not say may act on any cycle.
                return 0
            state, cycle = skip_state(now)
            if state == "busy":
                return 0
            if state == "paced":
                paced = True
            else:
                trace_next = cycle
        fault_next = _INF
        if self.fault_model is not None:
            fault_next = self.fault_model.next_event(now)
            if fault_next is None:
                return 0
        # The skip target: the earliest cycle any actor, monitor, or
        # periodic hook must observe.  That cycle itself is stepped.
        target = now + limit
        if wake < target:
            target = int(wake)
        if trace_next < target:
            target = int(trace_next)
        if fault_next < target:
            target = int(fault_next)
        if self.live:
            horizon = self.last_progress + self.watchdog + 1
            if horizon < target:
                target = horizon
        sampler = self.sampler
        if sampler is not None:
            boundary = sampler._start + sampler.interval - 1
            if boundary < target:
                target = boundary
        checker = self.checker
        if checker is not None:
            sweep = checker._last_check + checker.config.check_interval
            if sweep < target:
                target = sweep
        if paced:
            if self.profiler is not None:
                # Profiled runs keep per-cycle generator phases timed.
                return 0
            return self._paced_skip(table, target)
        count = target - now
        if count <= 0:
            return 0
        if self.profiler is not None:
            t0 = perf_counter_ns()
            self._finish_skip(target)
            self.profiler.on_idle(now, count, perf_counter_ns() - t0)
        else:
            self._finish_skip(target)
        self.cycles_skipped += count
        return count

    def _finish_skip(self, target: int) -> None:
        # Credits maturing inside the span are unobservable (nothing
        # sends, so nobody reads credit counts) — settle them at the
        # last skipped cycle so the target cycle's drain sees only its
        # own bucket.
        self.credit_ledger.drain_range(target - 1)
        if not self.live:
            # The reference watchdog refreshes last_progress on every
            # live-free cycle; mirror its value at the last skipped one.
            self.last_progress = target - 1
        self.now = target

    def _paced_skip(self, table: Tuple[Phase, ...], target: int) -> int:
        """Advance cycle-by-cycle running only the generator draws.

        Used while a Bernoulli generator is active and the rest of the
        network is quiescent: every other reference phase is a no-op
        (the caps in ``_skip`` bound the span), but the generator's
        per-node RNG draws must happen each cycle to keep the stream
        identical.  The first cycle that admits a message finishes as a
        full cycle: the rest of the table, from the entry after
        ``traffic``.
        """
        generator = self.generator
        ledger = self.credit_ledger
        count = 0
        cycle = self.now
        while cycle < target:
            self.now = cycle  # admit() stamps stats/events with now
            ledger.drain(cycle)
            before = generator.generated
            generator.tick(self, cycle)
            if generator.generated != before:
                traffic = [name for name, _ in table].index("traffic")
                self._cycle(table[traffic + 1:])
                self.cycles_skipped += count
                return count + 1
            if not self.live:
                self.last_progress = cycle
            cycle += 1
            count += 1
        self.now = cycle
        self.cycles_skipped += count
        return count

    def _node_wake(self, node: "Node", now: int):
        """When this parked node could next start a message.

        Mirrors ``Injector._try_start``'s scan exactly (window, order
        gate, retransmission gap, lane availability): returns ``now``
        when something could start immediately, the earliest
        retransmission deadline among messages the scan would reach, or
        infinity when only external activity can unblock the node.
        """
        gate = node.gate
        wake = _INF
        seen_dsts: Set[int] = set()
        lane_free: Optional[bool] = None
        for index, message in enumerate(node.queue):
            if index >= INJECTION_SCAN_WINDOW:
                break
            if gate.enabled:
                if message.dst in seen_dsts:
                    continue
                seen_dsts.add(message.dst)
            retransmit_at = message.retransmit_at
            if retransmit_at is not None and retransmit_at > now:
                if retransmit_at < wake:
                    wake = retransmit_at
                continue
            if not gate.may_start(message):
                continue
            if lane_free is None:
                lane_free = self._any_free_injection_vc(node)
            if lane_free:
                return now
            # No free injection lane: the reference scan stops here.
            break
        return wake

    @staticmethod
    def _any_free_injection_vc(node: "Node") -> bool:
        for injector in node.injectors:
            for sink in injector.channel.sinks:
                if sink is not None and sink.owner is None:
                    return True
        return False
