"""Minimal-adaptive routing with bounded misrouting on retries.

Minimal-only adaptive routing cannot deliver around a permanent fault
that cuts *every* minimal path (e.g. the direct link of a distance-1
pair).  The paper's fault-tolerance lineage (Chien & Kim's planar-
adaptive routing "extended ... with misrouting to support fault
tolerance") solves this with non-minimal hops; under CR the natural
formulation is *escalating misrouting on retry*:

* the first attempt routes minimally (no cost in the fault-free case);
* after each kill the next attempt is allowed a budget of non-minimal
  hops, growing with the kill count, so retries explore progressively
  wider detours until a live path is found.

Padding stays sound because the injector sizes Imin for the worst-case
path the attempt may take: ``min_distance + 2 * budget`` hops (each
misroute step adds one hop plus one hop of recovered distance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .base import Candidate, Tiers
from .minimal_adaptive import MinimalAdaptive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message
    from ..network.router import Router


class MisroutingAdaptive(MinimalAdaptive):
    """Productive links first; non-minimal links as a fallback tier.

    The fallback tier is only offered while the message still has
    misroute budget for the current attempt; the engine debits the
    budget when a misroute candidate is actually granted.
    """

    name = "misrouting_adaptive"
    #: the most non-minimal hops one attempt may take
    budget_cap = 8

    def misroute_budget(self, message: "Message") -> int:
        """Non-minimal hops allowed for this attempt.

        Zero on the first attempt (pure minimal routing), then two per
        accumulated kill, capped.
        """
        failures = message.kills + message.fkills
        return min(2 * failures, self.budget_cap)

    def candidates(self, router: "Router", message: "Message") -> Tiers:
        tiers = super().candidates(router, message)
        if message.misroutes_used >= message.misroute_budget:
            return tiers
        # Detour only at a genuine dead end: every productive link dead.
        # Merely-busy productive links are ordinary contention, which the
        # normal CR timeout handles; misrouting around them would let
        # congestion inflate paths and snowball into kill storms.
        out_channels = router.out_channels
        productive_ports = set()
        for cand in tiers[0]:
            if not out_channels[cand.port].dead:
                return tiers
            productive_ports.add(cand.port)
        by_port = self._port_candidates(router.num_vcs, is_misroute=True)
        detour: List[Candidate] = []
        for link in self.topology.links(router.node_id):
            if link.port not in productive_ports:
                detour += by_port[link.port]
        if detour:
            # super()'s answer is shared: the detour goes on a copy.
            tiers = (*tiers, detour)
        return tiers
