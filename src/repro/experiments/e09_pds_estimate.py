"""E09: estimating potential deadlock situations via Duato's algorithm.

"Estimating the number of deadlocks that occur is difficult because a
deadlock would normally mean the end of any network simulation ... To
conservatively estimate the number of PDS, we simulated a deadlock-free
routing algorithm (Duato's routing algorithm) which uses two virtual
networks -- an adaptive one and a deadlock-free deterministic one.
During the simulation, we counted the number of times messages needed to
use the dimension-order routed virtual channels (to escape deadlock)."

Expected shape: escape usage is rare at low load and grows steeply as
the adaptive channels congest -- the same blockages CR resolves by
kill-and-retry.  The CR kill counts at matching loads are reported next
to the escape counts for comparison.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale

COLUMNS = (
    "load", "escape_grants", "messages_used_escape", "escape_per_1k_msgs",
    "duato_latency", "cr_kills", "cr_latency",
)
POINT_COLUMNS = (
    "load", "escape_grants", "messages_used_escape", "messages_delivered",
    "latency_mean", "kills",
)


def points(scale: Scale):
    duato = scale.base_config(routing="duato")
    cr = scale.base_config(routing="cr")
    return [
        ({"load": load}, config.with_(load=load))
        for load in scale.loads
        for config in (duato, cr)
    ]


def combine(rows: List[Row], scale: Scale) -> List[Row]:
    """One row per load: the Duato run next to the CR run."""
    return [
        {
            "load": d["load"],
            "escape_grants": d["escape_grants"],
            "messages_used_escape": d["messages_used_escape"],
            "escape_per_1k_msgs": round(
                1000.0 * d["escape_grants"]
                / max(1, int(d["messages_delivered"])),
                2,
            ),
            "duato_latency": d["latency_mean"],
            "cr_kills": c["kills"],
            "cr_latency": c["latency_mean"],
        }
        for d, c in zip(rows[::2], rows[1::2])
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E09: PDS estimate (Duato escape-channel usage) vs CR kills",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Escape usage (the PDS proxy) grows with offered load.
    assert rows[-1]["escape_grants"] >= rows[0]["escape_grants"]
