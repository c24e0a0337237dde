"""A network node: message queue, injectors, receiver, order gate."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .guarantees import OrderGate
from .injector import Injector
from .receiver import Receiver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.channel import Channel
    from ..network.message import Message


class Node:
    """Host-side endpoint attached to one router.

    Holds the outbound message queue shared by this node's injection
    channels (messages wait here during backoff gaps and while the
    order gate serialises same-destination traffic) and the receiving
    interface for its ejection channels.
    """

    def __init__(
        self,
        node_id: int,
        injection_channels: List["Channel"],
        engine,
        queue_cap: int = 64,
        order_preserving: bool = True,
    ) -> None:
        if queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        self.node_id = node_id
        self.queue: List["Message"] = []
        self.queue_cap = queue_cap
        self.gate = OrderGate(enabled=order_preserving)
        self.injectors = [
            Injector(self, channel, engine) for channel in injection_channels
        ]
        self.receiver = Receiver(self, engine)

    def enqueue(self, message: "Message") -> bool:
        """Append a new message; False if the queue is full (blocked source)."""
        if len(self.queue) >= self.queue_cap:
            return False
        self.queue.append(message)
        return True
