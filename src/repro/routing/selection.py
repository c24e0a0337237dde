"""Output-selection policies.

An adaptive routing function proposes several admissible (port, VC)
candidates; the selection policy picks which free candidate the header
actually claims.  The choice affects load balance (and, under CR, how
quickly a retried message diverges from the path that got it killed --
random selection is what gives kill-and-retry its path diversity).
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, List

from .base import Candidate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message
    from ..network.router import Router


class SelectionPolicy(abc.ABC):
    """Picks one candidate among the free ones."""

    name = "abstract"

    @abc.abstractmethod
    def pick(
        self,
        free: List[Candidate],
        router: "Router",
        message: "Message",
        rng: random.Random,
    ) -> Candidate:
        """Choose from ``free`` (guaranteed non-empty)."""


class FirstFree(SelectionPolicy):
    """Deterministic: the first free candidate in tier order."""

    name = "first_free"

    def pick(self, free, router, message, rng):
        return free[0]


class RandomFree(SelectionPolicy):
    """Uniformly random among free candidates (CR's default)."""

    name = "random"

    def pick(self, free, router, message, rng):
        if len(free) == 1:
            return free[0]
        return rng.choice(free)


class LeastOccupied(SelectionPolicy):
    """Prefer the candidate whose downstream buffer is emptiest.

    Ties are broken randomly so repeated retries still diversify.
    """

    name = "least_occupied"

    def pick(self, free, router, message, rng):
        def occupancy(cand: Candidate) -> int:
            channel = router.out_channels[cand.port]
            if channel.is_ejection:
                return 0
            sink = channel.sinks[cand.vc]
            return sink.occupancy if sink is not None else 0

        best = min(occupancy(c) for c in free)
        pool = [c for c in free if occupancy(c) == best]
        if len(pool) == 1:
            return pool[0]
        return rng.choice(pool)


def make_selection(name: str) -> SelectionPolicy:
    """Factory by name (for a hand-built ``WormholeNetwork``; a
    ``SimConfig`` always selects :class:`RandomFree`)."""
    policies = {
        FirstFree.name: FirstFree,
        RandomFree.name: RandomFree,
        LeastOccupied.name: LeastOccupied,
    }
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(
            f"unknown selection policy {name!r}; "
            f"choose from {sorted(policies)}"
        ) from None
