"""T01 (paper Section 5 / Fig. 8): interface hardware inventory.

"The Imin calculation requires a few adders and a distance calculator
that is also required in any other network interface.  This hardware is
much simpler than that found in the Meiko CS-2 and perhaps comparable to
that found in the Intel Paragon and Thinking Machines CM-5."

The table reports gate/latch totals for the plain, CR, and FCR
injector+receiver pairs; the reproduced claim is that the CR delta over
a plain interface is a few hundred gates and FCR adds only a check-code
datapath on top.
"""

from __future__ import annotations

from typing import List

from ..hardware.costmodel import InterfaceParams, interface_table
from ..stats.report import format_table
from .common import Row, Scale

COLUMNS = (
    "interface", "injector_gates", "injector_latches", "receiver_gates",
    "receiver_latches", "total_gates", "total_latches",
)


def rows(scale: Scale) -> List[Row]:
    return interface_table(InterfaceParams(radix=scale.radix, dims=scale.dims))


def table(rows: List[Row]) -> str:
    return format_table(
        rows, title="T01: network-interface hardware inventory"
    )


def claim(rows: List[Row], scale: Scale) -> None:
    gates = {r["interface"]: r["total_gates"] for r in rows}
    assert gates["plain"] < gates["cr"] < gates["fcr"]
