"""Delivery-guarantee bookkeeping: ordering and exactly-once checks.

CR provides *order-preserving message transmission*: because a message
commits (tail leaves the source) only after its header has been consumed
at the destination, serialising commits per destination serialises header
arrivals per destination.  :class:`OrderGate` implements the source-side
serialisation (at most one uncommitted message in flight per (src, dst)
pair); :class:`DeliveryLedger` is the omniscient test harness that checks
the resulting guarantees -- FIFO per pair, exactly-once, no corrupt
payload delivered under FCR.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from struct import Struct
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from .protocol import KillCause, MessagePhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message


class OrderGate:
    """Source-side serialisation of same-destination messages.

    The injector asks :meth:`may_start` before beginning (or resuming) a
    message; while a message to ``dst`` is in flight and uncommitted,
    later messages to the same destination wait.  Retransmissions of the
    in-flight message itself are always allowed.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._in_flight: Dict[int, int] = {}  # dst -> message uid

    def may_start(self, message: "Message") -> bool:
        if not self.enabled:
            return True
        holder = self._in_flight.get(message.dst)
        return holder is None or holder == message.uid

    def on_start(self, message: "Message") -> None:
        if self.enabled:
            self._in_flight[message.dst] = message.uid

    def on_commit(self, message: "Message") -> None:
        if self.enabled and self._in_flight.get(message.dst) == message.uid:
            del self._in_flight[message.dst]

    def on_abandon(self, message: "Message") -> None:
        """Release the gate for a message that will never be retried."""
        self.on_commit(message)


class GuaranteeViolation(AssertionError):
    """A CR/FCR delivery guarantee was broken (simulator bug detector)."""


class Delivery(NamedTuple):
    """One delivered message as the ledger keeps it.

    The fields are the :class:`~repro.network.message.Message`
    attributes of the same names, read when its tail was consumed; a
    row answers the questions a delivered message was asked (``phase``,
    ``kill_history``, ``total_latency()``), so a reader of
    ``ledger.deliveries`` reads it as it read the message.
    """

    uid: int
    src: int
    dst: int
    seq: int
    payload_length: int
    wire_length: int
    attempts: int
    kills: int
    fkills: int
    measured: bool
    created_at: int
    first_inject_at: Optional[int]
    inject_start_at: Optional[int]
    stream_start_at: Optional[int]
    committed_at: Optional[int]
    header_consumed_at: Optional[int]
    delivered_at: Optional[int]
    #: ``(cycle, cause)`` per kill across attempts, oldest first.
    kill_history: Tuple[Tuple[int, str], ...]

    phase = MessagePhase.DELIVERED

    def total_latency(self) -> Optional[int]:
        """Creation-to-delivery latency (as ``Message.total_latency``)."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at


#: A ledger row: the integer fields of ``Delivery`` in field order, then
#: where the row's kills end in the kill log.
_WIDTH = len(Delivery._fields)
#: One row as native int64s: ``frombytes`` of a packed row appends it
#: in one copy, where ``extend`` converts item by item.
_ROW = Struct(f"{_WIDTH}q")
_MEASURED = Delivery._fields.index("measured")
#: Columns a message may leave unset; a row stores None as -1.
_OPTIONAL = tuple(
    Delivery._fields.index(name) for name in (
        "first_inject_at", "inject_start_at", "stream_start_at",
        "committed_at", "header_consumed_at", "delivered_at",
    )
)
#: A kill's cause as the log stores it: its index here.
_CAUSES = tuple(cause.value for cause in KillCause)
_CAUSE_CODE = {cause: code for code, cause in enumerate(_CAUSES)}


def _or_unset(value: Optional[int]) -> int:
    return -1 if value is None else value


class Deliveries:
    """The ledger's deliveries in delivery order: a read-only sequence
    that builds a :class:`Delivery` for each row it is asked for."""

    __slots__ = ("_rows", "_kills")

    def __init__(self, rows: "array[int]", kills: "array[int]") -> None:
        self._rows = rows
        self._kills = kills

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def __getitem__(self, index: int) -> Delivery:
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("delivery index out of range")
        start = index * _WIDTH
        values: list = self._rows[start:start + _WIDTH].tolist()
        for column in _OPTIONAL:
            if values[column] < 0:
                values[column] = None
        values[_MEASURED] = bool(values[_MEASURED])
        log = self._kills[self._rows[start - 1] if index else 0:values[-1]]
        values[-1] = tuple(
            (log[at], _CAUSES[log[at + 1]]) for at in range(0, len(log), 2)
        )
        return Delivery._make(values)

    def __iter__(self) -> Iterator[Delivery]:
        for index in range(len(self)):
            yield self[index]


class DeliveryLedger:
    """Records deliveries and validates the protocol guarantees.

    The ledger sits at the boundary between the network and the "host
    software": everything the receiving interfaces hand upward passes
    through here.  It raises :class:`GuaranteeViolation` immediately on:

    * duplicate delivery of a message uid (exactly-once), and
    * corrupt payload delivered when ``expect_integrity`` (FCR).

    Order preservation is validated after the run by
    :meth:`validate_fifo`: headers of killed partial attempts also reach
    the receiver, so the ordering judgement uses the header-arrival time
    of each message's *successful* attempt, which is only known at
    delivery.

    A delivery costs the ledger one row of machine integers, not the
    message: ``deliveries`` holds, per delivered message and in delivery
    order, its ids (uid, src, dst, seq), payload and wire length,
    attempt / kill / fkill counts, ``measured`` flag and the cycles it
    was created, first injected, began its last attempt, began
    streaming (PCS), committed, had its header consumed and was
    delivered, with None stored as -1.  Its kill history goes to a kill
    log of ``(cycle, cause)`` integer pairs, which a message never
    killed adds nothing to.  Each row reads back as a :class:`Delivery`.
    """

    def __init__(self, expect_integrity: bool = False) -> None:
        self.expect_integrity = expect_integrity
        self.delivered_uids: Set[int] = set()
        self.corrupt_deliveries = 0
        self._rows: "array[int]" = array("q")
        self._kills: "array[int]" = array("q")
        self.deliveries = Deliveries(self._rows, self._kills)

    def on_delivery(self, message: "Message", corrupt: bool) -> None:
        if message.uid in self.delivered_uids:
            raise GuaranteeViolation(
                f"duplicate delivery of message {message.uid}"
            )
        self.delivered_uids.add(message.uid)
        kills = self._kills
        for cycle, cause in message.kill_history:
            kills.append(cycle)
            kills.append(_CAUSE_CODE[cause])
        self._rows.frombytes(_ROW.pack(
            message.uid, message.src, message.dst, message.seq,
            message.payload_length, message.wire_length,
            message.attempts, message.kills, message.fkills,
            1 if message.measured else 0,
            message.created_at,
            _or_unset(message.first_inject_at),
            _or_unset(message.inject_start_at),
            _or_unset(message.stream_start_at),
            _or_unset(message.committed_at),
            _or_unset(message.header_consumed_at),
            _or_unset(message.delivered_at),
            len(kills),
        ))
        if corrupt:
            self.corrupt_deliveries += 1
            if self.expect_integrity:
                raise GuaranteeViolation(
                    f"corrupt payload delivered: message {message.uid}"
                )

    def _fifo_walk(self) -> Iterator[Tuple[Delivery, Optional[int]]]:
        """Walk each ``(src, dst)`` pair's deliveries in source-sequence
        order, yielding ``(delivery, previous)``: ``previous`` is the
        header time of the pair's latest earlier message that has one
        (None before the first)."""
        pairs: Dict[Tuple[int, int], List[Delivery]] = defaultdict(list)
        for msg in self.deliveries:
            pairs[(msg.src, msg.dst)].append(msg)
        for msgs in pairs.values():
            msgs.sort(key=lambda m: m.seq)
            previous = None
            for msg in msgs:
                yield msg, previous
                if msg.header_consumed_at is not None:
                    previous = msg.header_consumed_at

    def count_fifo_violations(self) -> int:
        """Count per-pair order inversions without raising.

        Used to *measure* ordering for schemes that do not promise it
        (plain adaptive routing, drop-at-block); CR tests use
        :meth:`validate_fifo`, which raises.  A message with no header
        time is skipped.
        """
        return sum(
            1 for msg, previous in self._fifo_walk()
            if previous is not None
            and msg.header_consumed_at is not None
            and msg.header_consumed_at <= previous
        )

    def validate_fifo(self) -> int:
        """Check per-(src, dst) FIFO order of delivered messages.

        For every pair, messages sorted by source sequence number must
        have strictly increasing header-arrival times (their successful
        attempt's).  Raises on the first violation; returns the number of
        pairs checked.
        """
        for msg, previous in self._fifo_walk():
            arrived = msg.header_consumed_at
            if arrived is None:
                raise GuaranteeViolation(
                    f"delivered message {msg.uid} has no header time"
                )
            if previous is not None and arrived <= previous:
                raise GuaranteeViolation(
                    f"out-of-order delivery on {(msg.src, msg.dst)}: "
                    f"seq {msg.seq} header at {arrived} <= predecessor "
                    f"{previous}"
                )
        return len({(msg.src, msg.dst) for msg in self.deliveries})
