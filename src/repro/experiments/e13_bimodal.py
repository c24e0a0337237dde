"""E13 (extension): bimodal traffic loads.

The paper's variance discussion points at the authors' companion study,
"Network performance under bimodal traffic loads" [Kim & Chien, JPDC
95]: real machines mix short control messages with long data transfers,
and long worms can starve short ones.  Under CR the interaction is
richer -- long messages hold paths longer (more kill exposure for
everyone), while padding inflates *short* messages the most.

The experiment runs an 80/20 short/long mix and reports per-class
latency for CR and DOR, plus the short-message penalty ratio
(short-class latency over its fixed-length baseline).

Runs in-process: per-class latency is read off the delivery ledger,
which only the live ``SimResult`` carries (``--workers`` and the sweep
cache do not apply).
"""

from __future__ import annotations

from typing import List

from ..stats.latency import summarize
from ..stats.report import format_table
from ..traffic.lengths import BimodalLength
from .common import Row, Scale

COLUMNS = (
    "load", "routing", "short_mean", "short_p99", "long_mean", "short_n",
    "long_n", ("overall_mean", "latency_mean"), "kills",
)


def points(scale: Scale):
    mix = BimodalLength(
        short=scale.message_length // 2,
        long=scale.message_length * 4,
        long_fraction=0.2,
    )
    return [
        ({"load": load, "routing": routing},
         scale.base_config(
             routing=routing, num_vcs=2, load=load, message_length=mix
         ))
        for load in scale.loads
        for routing in ("cr", "dor")
    ]


def from_result(result, **coords) -> Row:
    """Latency of delivered messages split by payload class."""
    short = result.config.message_length.short
    short_lat = [
        m.total_latency()
        for m in result.ledger.deliveries
        if m.measured and m.payload_length == short
    ]
    long_lat = [
        m.total_latency()
        for m in result.ledger.deliveries
        if m.measured and m.payload_length != short
    ]
    return {
        "short_mean": summarize(short_lat).mean if short_lat else 0.0,
        "short_p99": summarize(short_lat).p99 if short_lat else 0.0,
        "long_mean": summarize(long_lat).mean if long_lat else 0.0,
        "short_n": len(short_lat),
        "long_n": len(long_lat),
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "load",
            "routing",
            "short_mean",
            "short_p99",
            "long_mean",
            "overall_mean",
            "kills",
        ],
        title="E13: bimodal traffic (80% short / 20% long messages)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Long messages cost more than short ones in both schemes.
    for r in rows:
        if r["short_n"] and r["long_n"]:
            assert r["long_mean"] > r["short_mean"] * 0.8, r
