"""E15 (extension): deep networks -- long channel latency.

The paper's "Network Depth" discussion: "Though shallow networks are
generally preferable, some machines will be built with deep networks
(large amounts of buffering).  There are a variety of reasons for this,
but the most important reason is physical channel delay."  Padding is
proportional to the path's flit capacity, so channel pipeline depth
feeds straight into CR's overhead -- this is CR's structural weakness
and the experiment measures it honestly.

Reported per channel latency L in {1, 2, 4}: CR's pad fraction and mean
latency versus DOR's (DOR pays the latency too, but not the padding).
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale

CHANNEL_LATENCIES = (1, 2, 4)

COLUMNS = (
    "channel_latency", "routing", "latency_mean", "throughput",
    "pad_overhead", "kills", "undelivered",
)


def points(scale: Scale):
    return [
        ({"channel_latency": latency, "routing": routing},
         scale.base_config(
             routing=routing,
             num_vcs=2,
             load=scale.loads[0],
             channel_latency=latency,
             drain=scale.drain * 2,
         ))
        for latency in CHANNEL_LATENCIES
        for routing in ("cr", "dor")
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "channel_latency",
            "routing",
            "latency_mean",
            "throughput",
            "pad_overhead",
            "kills",
        ],
        title="E15: deep networks (channel pipeline depth) -- "
              "CR pays padding, DOR does not",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # CR's padding grows with channel depth; DOR's stays zero.
    pads = [r["pad_overhead"] for r in rows if r["routing"] == "cr"]
    assert pads == sorted(pads)
    assert all(
        r["pad_overhead"] == 0 for r in rows if r["routing"] == "dor"
    )
