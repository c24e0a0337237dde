"""T02: router complexity/delay comparison (after Chien '93).

"A recent study of implementation complexity for a variety of adaptive
routers shows that virtual channels can reduce the achievable speed of
adaptive routers significantly."  The table reproduces the ordering that
motivates CR: a no-VC adaptive CR router sits between the dimension-
order router and the virtual-channel adaptive routers (Duato, PAR,
Linder-Harden) in critical-path delay -- adaptivity without the VC tax.
"""

from __future__ import annotations

from typing import List

from ..hardware.routermodel import router_table
from ..stats.report import format_table
from .common import Row, Scale

COLUMNS = (
    "router", "vcs", "freedom", "routing_ns", "vc_alloc_ns", "switch_ns",
    "flow_ns", "total_ns", "vs_dor",
)


def rows(scale: Scale) -> List[Row]:
    return router_table(dims=scale.dims, torus=True)


def table(rows: List[Row]) -> str:
    return format_table(
        rows, title="T02: router critical-path model (2D torus)"
    )


def claim(rows: List[Row], scale: Scale) -> None:
    delays = {r["router"]: r["total_ns"] for r in rows}
    assert delays["CR"] < delays["Duato"]
    assert delays["CR"] <= delays["DOR"] * 1.1
