"""E04 (paper Fig. 14(a,b)): buffer depth -- CR shallow vs DOR deep.

"For a dimension-order routing network, buffer resources are organized
as deep FIFO buffers ... For CR networks ... the buffer depth of each
virtual channel [is fixed] at two flits.  This is the right way to
organize buffers for CR because increasing buffer depth only increases
padding overhead without performance gain."  The claim to reproduce:
"with equally given two virtual channels, a CR network with 2-flit deep
buffers matches the performance of a DOR network with 16-flit deep
buffers" -- i.e. CR at a fraction of the buffer budget tracks or beats
deep-buffered DOR.

Part (a) uses the scale's default message length, part (b) longer
messages (deep FIFOs help DOR most when worms are long).
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_series
from .common import MATRIX_COLUMNS, Row, Scale, at_top, matrix_points

DOR_DEPTHS = (2, 4, 8, 16)

COLUMNS = (*MATRIX_COLUMNS, "part")


def points(scale: Scale):
    # The "CR d2 matches DOR d16" claim lives at saturation: extend the
    # shared load axis with a deep-saturation point.
    loads = tuple(scale.loads) + (round(scale.loads[-1] + 0.2, 3),)
    out = []
    for part, length in (
        ("a", scale.message_length), ("b", scale.message_length * 4)
    ):
        base = scale.base_config(num_vcs=2, message_length=length)
        configs = {
            f"dor_d{depth}": base.with_(routing="dor", buffer_depth=depth)
            for depth in DOR_DEPTHS
        }
        configs["cr_d2"] = base.with_(routing="cr", buffer_depth=2)
        out += [
            ({**coords, "part": part}, config)
            for coords, config in matrix_points(configs, loads)
        ]
    return out


def table(rows: List[Row]) -> str:
    parts = []
    for part in ("a", "b"):
        sub = [r for r in rows if r["part"] == part]
        if not sub:
            continue
        parts.append(
            format_series(
                sub,
                x="load",
                y="latency_mean",
                title=f"E04 / Fig. 14({part}): mean latency, "
                "DOR deep FIFOs vs CR 2-flit buffers",
            )
        )
        parts.append(
            format_series(
                sub,
                x="load",
                y="throughput",
                title=f"E04 / Fig. 14({part}): accepted throughput",
            )
        )
    return "\n\n".join(parts)


def claim(rows: List[Row], scale: Scale) -> None:
    # The paper: CR with 2-flit buffers matches DOR with 16-flit FIFOs.
    # At the top load of part (a) CR is within 10% of (or beats) the
    # deepest DOR configuration's throughput.
    top = at_top([r for r in rows if r["part"] == "a"], "config")
    assert top["cr_d2"]["throughput"] >= 0.9 * top["dor_d16"]["throughput"]
