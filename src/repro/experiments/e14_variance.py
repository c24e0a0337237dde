"""E14 (extension): latency variance under kill/retry.

"While the retransmission mechanism in CR completely eliminates the
possibility of deadlock, no explicit mechanism was provided to guarantee
completion of each communication. ... repeated kills can give some
messages much larger latencies, increasing the variance of message
latency."  (Section 7; the paper defers mitigation to [Kim & Chien 95].)

The experiment quantifies the effect: CR's latency standard deviation
and tail (p99/p50 ratio) versus DOR's across load, next to the kill
distribution (max kills any one message suffered).

Runs in-process: p50 and per-message kill counts come from the stats
collector and ledger, which only the live ``SimResult`` carries
(``--workers`` and the sweep cache do not apply).
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale, at_top

COLUMNS = (
    "load", "routing", "mean", "std", "p50", "p99", "tail_ratio",
    "max_kills_one_msg",
)


def points(scale: Scale):
    return [
        ({"load": load, "routing": routing},
         scale.base_config(routing=routing, num_vcs=2, load=load))
        for load in scale.loads
        for routing in ("cr", "dor")
    ]


def from_result(result, **coords) -> Row:
    summary = result.stats.latency_summary()
    return {
        "mean": summary.mean,
        "std": summary.std,
        "p50": summary.p50,
        "p99": summary.p99,
        "tail_ratio": round(
            summary.p99 / summary.p50 if summary.p50 else 0.0, 2
        ),
        "max_kills_one_msg": max(
            (m.kills + m.fkills for m in result.ledger.deliveries),
            default=0,
        ),
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E14: latency variance and tails (kill/retry cost)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # The kill counter is plausible: some message was retried at the
    # top CR load.
    assert at_top(rows, "routing")["cr"]["max_kills_one_msg"] >= 1
