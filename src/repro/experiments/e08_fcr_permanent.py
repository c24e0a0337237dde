"""E08: FCR with permanent channel faults.

The abstract claims "permanent faults tolerance ... with no software
buffering and retry".  The mechanism is kill-and-retry over adaptive
path diversity: a worm aimed at a dead channel stalls, the source times
out and kills it, and the randomised adaptive retry diversifies around
the fault; routers also avoid locally-known dead channels whenever an
alternative productive channel exists.  When a fault cuts *all* minimal
paths of a pair, retries escalate to bounded misrouting (the Chien &
Kim planar-adaptive lineage the paper builds on), with padding sized
for the detour so the commit guarantee still holds.

The experiment kills random bidirectional links at cycle 0 and checks
that every message is still delivered (undelivered == 0 after drain),
with latency rising as the fault count grows.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale

FAULT_COUNTS = (0, 1, 2, 4)

COLUMNS = (
    "dead_links", "load", "latency_mean", "latency_p99", "kills",
    "kill_rate", ("delivered", "messages_delivered"), "undelivered",
    "drained",
)


def points(scale: Scale):
    load = scale.loads[0]
    base = scale.base_config(
        routing="fcr", load=load, drain=scale.drain * 2, misrouting=True
    )
    return [
        # dead links come in bidirectional pairs
        ({"dead_links": 2 * count, "load": load},
         base.with_(permanent_faults=count))
        for count in FAULT_COUNTS
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "dead_links",
            "latency_mean",
            "latency_p99",
            "kills",
            "kill_rate",
            "delivered",
            "undelivered",
        ],
        title="E08: FCR with permanent link faults (undelivered must be 0)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    for r in rows:
        assert r["undelivered"] == 0, r
