"""Retransmission-gap policies.

After a kill, CR retransmits the message "some time later".  The gap
matters: retrying immediately tends to recreate the same contention
pattern (every participant of a potential deadlock retries at once),
while waiting too long wastes latency at low load.  The paper's Fig. 11
compares several *static* gaps against a *dynamic* scheme that is "quite
similar to the binary exponential backoff used in Ethernet networks" and
shows the dynamic scheme tracking the best static gap at every load.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message


class RetransmitPolicy(abc.ABC):
    """Maps a killed message to the cycles to wait before retrying."""

    name = "abstract"

    @abc.abstractmethod
    def gap(self, message: "Message", rng: random.Random) -> int:
        """Wait (in cycles) before the next injection attempt.

        ``message.kills`` has already been incremented for the kill that
        triggered this retransmission, so the first retry sees 1.
        """


class StaticGap(RetransmitPolicy):
    """A fixed retransmission gap (the dashed lines of Fig. 11)."""

    name = "static"

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("gap must be >= 0 cycles")
        self.cycles = cycles

    def gap(self, message: "Message", rng: random.Random) -> int:
        return self.cycles

    def __repr__(self) -> str:
        return f"StaticGap({self.cycles})"


class ExponentialBackoff(RetransmitPolicy):
    """Binary exponential backoff (the solid line of Fig. 11).

    After the n-th consecutive kill of a message, wait a uniformly random
    number of slots in ``[0, 2**min(n, cap) - 1]``, each slot being
    ``slot_cycles`` long.  Randomisation is what breaks the symmetry of a
    potential deadlock: the participants retry at different times instead
    of re-forming the same cycle.
    """

    name = "exponential"
    #: the largest exponent: at most ``2**cap`` slots
    cap = 6

    def __init__(self, slot_cycles: int = 16) -> None:
        if slot_cycles < 1:
            raise ValueError("slot_cycles must be >= 1")
        self.slot_cycles = slot_cycles

    def gap(self, message: "Message", rng: random.Random) -> int:
        exponent = min(max(message.kills, 1), self.cap)
        slots = rng.randrange(1 << exponent)
        return slots * self.slot_cycles

    def __repr__(self) -> str:
        return (
            f"ExponentialBackoff(slot={self.slot_cycles}, cap={self.cap})"
        )
