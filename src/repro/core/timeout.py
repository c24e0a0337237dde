"""Timeout policies: when is a stalled worm presumed deadlocked?

CR's chosen scheme is *source-based*: the injector counts consecutive
cycles in which it has a flit to send but no credit, and kills the
message when the count crosses a threshold.  The paper explores
alternatives and concludes "we ... chose a source-based timeout scheme
which uses hardware at the source (injector) to identify potential
deadlock situations"; the rejected *path-wide* scheme (every router
monitors local progress) "produce[s] unnecessary message kills, providing
inferior performance" -- reproduced here as
:class:`PathWideTimeout` for the E10 ablation.

Threshold choices used by the paper's experiments:

* a fixed count (Fig. 11 uses 32 cycles), and
* scaled with message length and multiplexing degree -- "for CR,
  timeout = (message length) x (the number of virtual channels)"
  (Fig. 14), since a worm sharing a physical channel with v-1 other
  lanes legitimately advances only every v-th cycle.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message


class TimeoutPolicy(abc.ABC):
    """Decides when a stalled injection should be killed."""

    name = "abstract"

    @abc.abstractmethod
    def threshold(self, message: "Message", num_vcs: int) -> int:
        """Stall cycles after which the message is killed."""

    def fires(self, stall: int, message: "Message", num_vcs: int) -> bool:
        """True when ``stall`` consecutive stalled cycles exceed the limit."""
        return stall >= self.threshold(message, num_vcs)


class FixedTimeout(TimeoutPolicy):
    """A constant stall threshold in cycles."""

    name = "fixed"

    def __init__(self, cycles: int) -> None:
        if cycles < 1:
            raise ValueError("timeout must be >= 1 cycle")
        self.cycles = cycles

    def threshold(self, message: "Message", num_vcs: int) -> int:
        return self.cycles

    def __repr__(self) -> str:
        return f"FixedTimeout({self.cycles})"


class LengthScaledTimeout(TimeoutPolicy):
    """The paper's Fig. 14 rule: wire length x virtual channels x factor."""

    name = "length_scaled"
    #: the shortest threshold, in cycles
    minimum = 8

    def __init__(self, factor: float = 1.0) -> None:
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.factor = factor

    def threshold(self, message: "Message", num_vcs: int) -> int:
        scaled = int(message.wire_length * num_vcs * self.factor)
        return max(scaled, self.minimum)

    def __repr__(self) -> str:
        return f"LengthScaledTimeout(factor={self.factor}, min={self.minimum})"


class PathWideTimeout:
    """Per-router local-progress monitor (the rejected alternative).

    Any router that sees an uncommitted worm make no local progress for
    ``cycles`` kills it from the source.  A worm stalled behind ordinary
    contention trips this long before backpressure would have stalled the
    *source* for the same duration, so kills fire that the source-based
    scheme would have avoided -- the "unnecessary message kills" of the
    paper's comparison.
    """

    name = "path_wide"

    def __init__(self, cycles: int) -> None:
        if cycles < 1:
            raise ValueError("timeout must be >= 1 cycle")
        self.cycles = cycles

    def stalled(self, last_advance: int, now: int) -> bool:
        return now - last_advance >= self.cycles

    def __repr__(self) -> str:
        return f"PathWideTimeout({self.cycles})"
