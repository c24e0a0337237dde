"""Fault-model interface.

The engine consults the fault model at two points: once per cycle
(``on_cycle`` -- used to enact scheduled permanent faults) and once per
link traversal (``corrupt`` -- used to inject transient data errors).
Each hook has a question the fast engine asks so that it calls the hook
only where it can matter: ``next_event`` says which cycles ``on_cycle``
needs, ``corrupts`` whether ``corrupt`` is anything but the base no-op.
Both are answered from what a subclass overrides -- override
``corrupt`` and you are asked; nothing to declare -- and both err
towards asking: a model that does not say is consulted every time.
Faults are only applied to router-to-router links; the paper treats the
processor-side interfaces as part of the (trusted) node.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.channel import Channel
    from ..network.flit import Flit
    from ..network.network import WormholeNetwork

_INF = float("inf")


class FaultModel(abc.ABC):
    """Base class: override what the scenario needs."""

    #: event bus for FaultActivated emissions; None when untraced
    #: (class attribute so existing subclasses need no __init__ change).
    bus = None

    #: stats collector for fault counters; None when unbound
    #: (class attribute, same pattern as ``bus``).
    stats = None

    def bind_bus(self, bus) -> None:
        """Point fault emissions at ``bus`` (None to detach)."""
        self.bus = bus

    def bind_stats(self, stats) -> None:
        """Point fault counters at a StatsCollector (None to detach)."""
        self.stats = stats

    def on_cycle(self, now: int, network: "WormholeNetwork") -> None:
        """Hook run at the start of every cycle."""

    def next_event(self, now: int) -> Optional[float]:
        """The cycle :meth:`on_cycle` next acts, asked at cycle ``now``.

        The fast engine's wake protocol.  A cycle ``<= now`` means
        "this one"; a later cycle is stepped in full and the quiescent
        cycles before it may be skipped; ``inf`` means never; ``None``
        means "cannot say" and turns event skipping off.  Override this
        whenever you override :meth:`on_cycle`: a subclass that
        overrides only the hook gets ``None`` here, which is always
        right and never fast.
        """
        if type(self).on_cycle is FaultModel.on_cycle:
            # No cycle hook (the base, TransientFaults): the model acts
            # only per transfer, and nothing transfers during a skip.
            return _INF
        return None

    def corrupt(
        self, flit: "Flit", channel: "Channel", rng: random.Random
    ) -> bool:
        """Return True to corrupt ``flit`` on this traversal."""
        return False

    def corrupts(self) -> bool:
        """Whether :meth:`corrupt` can ever answer True (or draw).

        ``next_event``'s sibling, for the per-traversal hook: the fast
        engine asks once per switch phase and, on False, does not call
        :meth:`corrupt` for that phase's flits.  False only when
        ``corrupt`` is this class's no-op.  Override ``corrupt`` and
        you are asked; nothing to declare.
        """
        return type(self).corrupt is not FaultModel.corrupt


class CompositeFaultModel(FaultModel):
    """Combine several fault models (e.g. transient + permanent)."""

    def __init__(self, models: List[FaultModel]) -> None:
        self.models = list(models)

    def bind_bus(self, bus) -> None:
        self.bus = bus
        for model in self.models:
            model.bind_bus(bus)

    def bind_stats(self, stats) -> None:
        self.stats = stats
        for model in self.models:
            model.bind_stats(stats)

    def on_cycle(self, now: int, network: "WormholeNetwork") -> None:
        for model in self.models:
            model.on_cycle(now, network)

    def next_event(self, now: int) -> Optional[float]:
        nxt = _INF
        for model in self.models:
            child_next = model.next_event(now)
            if child_next is None:
                return None
            if child_next < nxt:
                nxt = child_next
        return nxt

    def corrupt(self, flit, channel, rng) -> bool:
        return any(model.corrupt(flit, channel, rng) for model in self.models)

    def corrupts(self) -> bool:
        return (
            type(self).corrupt is not CompositeFaultModel.corrupt
            or any(model.corrupts() for model in self.models)
        )
