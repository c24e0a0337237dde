"""Flit: the flow-control unit of a wormhole network.

A message is transmitted as a sequence of flits.  The first flit is the
*header* (it carries routing information and acquires channels as it
advances); subsequent flits are *body* flits; Compressionless Routing
appends *pad* flits to short messages so that the tail cannot leave the
source before the header has been consumed at the destination.  The final
flit of the sequence -- whatever its kind -- is flagged as the *tail*; it
releases channels as it passes.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .message import Message


class FlitKind(enum.Enum):
    """Classification of a flit within its message."""

    HEAD = "head"
    BODY = "body"
    PAD = "pad"


class Flit:
    """One flow-control unit.

    Attributes
    ----------
    message:
        The message this flit belongs to.
    kind:
        HEAD, BODY, or PAD.
    index:
        Position within the wire sequence of the current transmission
        attempt (0 for the header).
    is_head:
        True for the message header (``kind`` is HEAD); fixed at
        construction, like ``kind``.
    is_tail:
        True for the last flit of the transmission attempt.
    corrupted:
        Set by the transient-fault model when a link traversal damages
        the flit.  Detected by per-flit check codes at routers (headers)
        or at the receiving network interface (body/pad flits).
    """

    __slots__ = ("message", "kind", "index", "is_head", "is_tail", "corrupted")

    def __init__(
        self,
        message: "Message",
        kind: FlitKind,
        index: int,
        is_tail: bool = False,
    ) -> None:
        self.message = message
        self.kind = kind
        self.index = index
        self.is_head = kind is FlitKind.HEAD
        self.is_tail = is_tail
        self.corrupted = False

    @property
    def is_payload(self) -> bool:
        """True if this flit carries message data (header or body)."""
        return self.kind is not FlitKind.PAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tail = ",tail" if self.is_tail else ""
        return (
            f"Flit(msg={self.message.uid}, {self.kind.value}"
            f"[{self.index}]{tail})"
        )
