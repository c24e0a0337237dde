"""E12: order-preserving transmission under heavy kill pressure.

The abstract lists "order-preserving message transmission" among CR's
advantages.  The mechanism: a message commits only after its header has
been consumed at the destination (padding lemma), and the source
serialises same-destination messages on commit -- so per-(src, dst)
header arrivals, and hence deliveries, stay FIFO even though individual
attempts are killed and retried on different adaptive paths.

The experiment drives CR hard enough to cause thousands of kills and
then validates FIFO order over every communicating pair.

Runs in-process: the FIFO check walks the delivery ledger, which only
the live ``SimResult`` carries (``--workers`` and the sweep cache do not
apply).
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale

COLUMNS = (
    "load", "pairs_checked", "deliveries", "kills", "retransmissions",
    "fifo_violations",
)


def points(scale: Scale):
    return [
        ({"load": load}, scale.base_config(routing="cr", load=load))
        for load in scale.loads
    ]


def from_result(result, **coords) -> Row:
    return {
        "pairs_checked": result.ledger.validate_fifo(),  # raises on violation
        "deliveries": len(result.ledger.deliveries),
        "fifo_violations": 0,
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows, title="E12: per-pair FIFO delivery under kill/retry"
    )


def claim(rows: List[Row], scale: Scale) -> None:
    for r in rows:
        assert r["fifo_violations"] == 0
        assert r["pairs_checked"] > 0
