"""E02: sensitivity to the source timeout (paper Section 7).

A short timeout kills worms that are merely contended (needless
retransmissions); a long timeout leaves potential deadlocks holding
channels.  The paper settles on timeouts around the message service
time -- its Fig. 11 runs use 32 cycles, its Fig. 14 runs use
(message length) x (number of virtual channels).
"""

from __future__ import annotations

from typing import List

from ..core.timeout import FixedTimeout
from ..stats.report import format_table
from .common import Row, Scale

TIMEOUTS = (8, 16, 32, 64, 128, 256)

COLUMNS = (
    "timeout", "load", "latency_mean", "latency_p95", "throughput",
    "kills", "kill_rate", "undelivered",
)


def points(scale: Scale):
    load = scale.loads[len(scale.loads) // 2]
    base = scale.base_config(routing="cr", load=load)
    return [
        ({"timeout": cycles, "load": load},
         base.with_(timeout=FixedTimeout(cycles)))
        for cycles in TIMEOUTS
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "timeout",
            "latency_mean",
            "latency_p95",
            "throughput",
            "kills",
            "kill_rate",
        ],
        title="E02 CR timeout sensitivity",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Short timeouts over-kill: the kill count falls as the timeout
    # grows.
    assert rows[0]["kills"] >= rows[-1]["kills"]
    # The sweet spot sits near the message service time L...
    best = min(rows, key=lambda r: r["latency_mean"])
    length = scale.message_length
    assert length <= best["timeout"] <= 4 * length
    # ...and on a network big enough to contend (a 4-ary torus's curve
    # is flat: 94 cycles at the minimum, 101-115 at the ends) both ends
    # of the sweep are at least 1.5x worse.
    if scale.radix >= 8:
        assert rows[0]["latency_mean"] >= 1.5 * best["latency_mean"]
        assert rows[-1]["latency_mean"] >= 1.5 * best["latency_mean"]
