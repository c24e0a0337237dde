"""Routing-function interface.

A routing function maps (router, message header) to candidate output
(port, virtual channel) pairs.  Candidates come in *tiers*: the switch
tries every candidate in the first tier before falling back to the next
(Duato-style algorithms put adaptive channels in tier 0 and the escape
channels in tier 1; most algorithms have a single tier).

The routing function also owns two pieces of header policy:

* ``injection_vc`` -- which VC a message may claim on its injection port
  (dimension-order routing pins the lane and dateline class; adaptive
  routing takes any free lane), and
* ``on_header_hop`` -- header state updates as the header crosses a
  channel (the dateline bit for toroidal deadlock freedom).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.channel import Channel
    from ..network.message import Message
    from ..network.router import Router
    from ..topology.base import Topology


@dataclass(frozen=True)
class Candidate:
    """One admissible (output port, output VC) pair for a header.

    ``is_escape`` marks Duato escape channels (counted as potential
    deadlock situations); ``is_misroute`` marks non-minimal hops
    (debited against the message's per-attempt misroute budget).
    """

    port: int
    vc: int
    is_escape: bool = False
    is_misroute: bool = False


class RoutingFunction(abc.ABC):
    """Strategy object shared by every router in a network."""

    #: human-readable identifier (used in reports)
    name = "abstract"

    def __init__(self, topology: "Topology") -> None:
        self.topology = topology
        self._pool: Dict[Tuple[int, bool], List[List[Candidate]]] = {}

    def _port_candidates(
        self, num_vcs: int, is_misroute: bool = False
    ) -> List[List[Candidate]]:
        """``[port][vc]`` -> the one ``Candidate(port, vc)`` this
        relation hands out, for every link port and ``vc < num_vcs``.

        Built once per VC count: a candidate is a frozen value, so
        every answer naming the same (port, vc) can hold the same
        object.
        """
        key = (num_vcs, is_misroute)
        pool = self._pool.get(key)
        if pool is None:
            pool = self._pool[key] = [
                [
                    Candidate(port, vc, is_misroute=is_misroute)
                    for vc in range(num_vcs)
                ]
                for port in range(self.topology.max_link_ports())
            ]
        return pool

    @abc.abstractmethod
    def min_vcs(self) -> int:
        """Fewest virtual channels per link this algorithm needs.

        This is the headline hardware-cost comparison of the paper: CR
        needs one, DOR on a torus needs two, Duato needs three.
        """

    @abc.abstractmethod
    def candidates(
        self, router: "Router", message: "Message"
    ) -> List[List[Candidate]]:
        """Tiers of admissible link-port candidates at ``router``.

        Only called when the message still has network hops to make
        (``router.node_id != message.dst``); ejection is handled by the
        router itself.  Candidates for dead channels are filtered by the
        caller, so implementations may ignore faults.

        The result may depend on the message's header state and on
        which channels are dead, and on nothing else that changes while
        the header waits: the fast engine re-asks a blocked header only
        after one of those (or the router's output ownership) changed.

        The outer list is the caller's (a subclass may append a tier to
        what ``super()`` returned); the candidates in it may be objects
        shared with other answers -- they are frozen values, compare
        them with ``==``.
        """

    def injection_vc(
        self,
        message: "Message",
        num_vcs: int,
        free_vcs: List[int],
        rng: random.Random,
    ) -> Optional[int]:
        """VC to claim on the injection port, or None to wait.

        ``free_vcs`` lists currently unowned VCs.  The default takes any
        free VC at random (adaptive routing treats VCs as equivalent
        lanes).
        """
        if not free_vcs:
            return None
        return free_vcs[0] if len(free_vcs) == 1 else rng.choice(free_vcs)

    def assign_lane(self, message: "Message", rng: random.Random) -> None:
        """Pick per-message lane state at first injection (default none)."""

    def misroute_budget(self, message: "Message") -> int:
        """Non-minimal hops this attempt may take (default: none).

        The injector sizes padding for ``min_distance + 2 * budget``
        hops so the Imin lemma holds on misrouted paths too.
        """
        return 0

    def on_header_hop(self, message: "Message", channel: "Channel") -> None:
        """Update header routing state when crossing ``channel``."""
