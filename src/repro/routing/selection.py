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
