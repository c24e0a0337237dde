"""E03 (paper Fig. 11): static retransmission gaps vs dynamic backoff.

"Fig. 11 compares average message latency for several different static
retransmission time gaps to the dynamic scheme.  The timeout for message
kills is fixed at 32 cycles.  The dashed lines are the static schemes
and the solid line is the dynamic scheme" -- which is "quite similar to
the binary exponential backoff used in Ethernet networks".

Expected shape: small static gaps win at low load and collapse near
saturation (synchronised retries re-create the conflict); large static
gaps waste latency at low load; the dynamic scheme tracks the best
static gap across the whole load range.
"""

from __future__ import annotations

from typing import List

from ..core.backoff import ExponentialBackoff, StaticGap
from ..core.timeout import FixedTimeout
from ..stats.report import format_series
from .common import MATRIX_COLUMNS, Row, Scale, at_load, matrix_points

STATIC_GAPS = (4, 16, 64, 256)

COLUMNS = MATRIX_COLUMNS


def points(scale: Scale):
    base = scale.base_config(routing="cr", timeout=FixedTimeout(32))
    configs = {
        f"static_{gap}": base.with_(backoff=StaticGap(gap))
        for gap in STATIC_GAPS
    }
    configs["dynamic"] = base.with_(backoff=ExponentialBackoff(slot_cycles=16))
    return matrix_points(configs, scale.loads)


def table(rows: List[Row]) -> str:
    return format_series(
        rows,
        x="load",
        y="latency_mean",
        title="E03 / Fig. 11: mean latency by retransmission scheme",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # The dynamic scheme stays close to the best static gap at every
    # load (within 40% of the per-load minimum latency).
    for load in sorted({r["load"] for r in rows}):
        curves = {
            config: row["latency_mean"]
            for config, row in at_load(rows, load, "config").items()
        }
        best_static = min(v for k, v in curves.items() if k != "dynamic")
        assert curves["dynamic"] <= best_static * 1.4, (load, curves)
