"""E06 (paper Fig. 14(e,f)): multiple source and sink channels.

"A single source and a single sink channel are used for (a)-(d), and
multiple source and sink channels are used for (e)-(f)" -- "network
interface bandwidth is an important factor affecting the achievable
peak-throughput of CR networks" (the observation that led iWarp to a
multi-channel interface).  CR is interface-hungry for two reasons: pad
flits consume injection bandwidth, and killed attempts re-consume it.
Widening the interface lets CR's adaptive routing turn the extra
injection bandwidth into delivered throughput, while deterministic DOR
saturates on its network paths instead.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_series
from .common import MATRIX_COLUMNS, Row, Scale, at_top, matrix_points

INTERFACE_WIDTHS = (1, 2, 4)

COLUMNS = MATRIX_COLUMNS


def points(scale: Scale):
    base = scale.base_config(num_vcs=2, buffer_depth=2)
    configs = {}
    for width in INTERFACE_WIDTHS:
        configs[f"cr_{width}ch"] = base.with_(
            routing="cr", num_inject=width, num_sink=width
        )
        configs[f"dor_{width}ch"] = base.with_(
            routing="dor", num_inject=width, num_sink=width
        )
    return matrix_points(configs, scale.loads)


def table(rows: List[Row]) -> str:
    throughput = format_series(
        rows,
        x="load",
        y="throughput",
        title="E06 / Fig. 14(e,f): throughput by interface width",
    )
    latency = format_series(
        rows,
        x="load",
        y="latency_mean",
        title="E06 / Fig. 14(e,f): mean latency by interface width",
    )
    return throughput + "\n\n" + latency


def claim(rows: List[Row], scale: Scale) -> None:
    # Widening the interface raises CR's saturated throughput.
    top = at_top(rows, "config")
    assert top["cr_4ch"]["throughput"] >= top["cr_1ch"]["throughput"]
