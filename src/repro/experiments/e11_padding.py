"""E11: padding overhead vs message length, distance, and buffer depth.

The padding rule charges every CR message up to ``Imin`` (path capacity
plus one) flits.  The paper's design discussion follows directly from
this table: "increasing buffer depth only increases padding overhead
without performance gain" (hence 2-flit CR buffers), padding "depends
only on the distance in flits" so it "is independent of the number of
virtual channels", and deep networks (long channel latency) pay more.

The analytic table is cross-checked against a measured simulation point:
the engine's observed pad fraction must match the prediction for the
run's traffic (the property tests do this exactly; here it is reported).
"""

from __future__ import annotations

from typing import List

from ..core.padding import PaddingParams, cr_wire_length, padding_overhead
from ..stats.report import format_table
from .common import Row, Scale

MESSAGE_LENGTHS = (4, 8, 16, 32, 64, 128)
BUFFER_DEPTHS = (1, 2, 4, 8)

COLUMNS = (
    "buffer_depth", "payload", "hops", "wire", "overhead",
    "measured_pad_overhead",
)


def analytic_rows(hops: int) -> List[Row]:
    rows: List[Row] = []
    for depth in BUFFER_DEPTHS:
        params = PaddingParams(buffer_depth=depth)
        for length in MESSAGE_LENGTHS:
            wire = cr_wire_length(length, hops, params)
            rows.append(
                {
                    "buffer_depth": depth,
                    "payload": length,
                    "hops": hops,
                    "wire": wire,
                    "overhead": round(padding_overhead(length, wire), 3),
                    "measured_pad_overhead": "",
                }
            )
    return rows


def points(scale: Scale):
    """The one measured point, under the analytic rows' columns."""
    config = scale.base_config(routing="cr", load=scale.loads[0])
    coords = {
        "buffer_depth": config.buffer_depth,
        "payload": scale.message_length,
        "hops": "sim",
        "wire": "",
        "overhead": "",
    }
    return [(coords, config)]


def from_report(report, **coords) -> Row:
    return {
        "measured_pad_overhead": round(float(report["pad_overhead"]), 3)
    }


def combine(rows: List[Row], scale: Scale) -> List[Row]:
    # Average hop count of uniform traffic on the scale's torus.
    hops = scale.dims * (scale.radix // 4)
    return analytic_rows(hops) + rows


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E11: CR padding overhead (analytic + one measured point)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Overhead falls with payload at every buffer depth.
    analytic = [r for r in rows if r["hops"] != "sim"]
    for depth in BUFFER_DEPTHS:
        ovs = [r["overhead"] for r in analytic if r["buffer_depth"] == depth]
        assert ovs == sorted(ovs, reverse=True)
