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

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

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
    """

    def __init__(self, expect_integrity: bool = False) -> None:
        self.expect_integrity = expect_integrity
        self.delivered_uids: Set[int] = set()
        self.corrupt_deliveries = 0
        self.deliveries: List["Message"] = []

    def on_delivery(self, message: "Message", corrupt: bool) -> None:
        if message.uid in self.delivered_uids:
            raise GuaranteeViolation(
                f"duplicate delivery of message {message.uid}"
            )
        self.delivered_uids.add(message.uid)
        self.deliveries.append(message)
        if corrupt:
            self.corrupt_deliveries += 1
            if self.expect_integrity:
                raise GuaranteeViolation(
                    f"corrupt payload delivered: message {message.uid}"
                )

    def _fifo_walk(self) -> Iterator[Tuple["Message", Optional[int]]]:
        """Walk each ``(src, dst)`` pair's deliveries in source-sequence
        order, yielding ``(message, previous)``: ``previous`` is the
        header time of the pair's latest earlier message that has one
        (None before the first)."""
        pairs: Dict[Tuple[int, int], List["Message"]] = defaultdict(list)
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
