"""T03 (extension table): cost-normalised buffer-organisation comparison.

E04/E05 compare schemes at very different storage budgets; this table
normalises: for each buffer organisation, the per-router storage (flit
slots and bits) next to the throughput it achieves at the scale's top
load, and the resulting throughput per buffer flit.  The paper's
economic argument -- CR reaches deep-FIFO DOR performance at a fraction
of the storage -- becomes one column.
"""

from __future__ import annotations

from typing import List

from ..hardware.buffercost import standard_organisations
from ..stats.report import format_table
from .common import Row, Scale

COLUMNS = (
    "organisation", "vcs", "depth", "flits_per_router", "throughput",
    "thr_per_buffer_flit", "latency_mean",
)


def points(scale: Scale):
    return [
        ({
            "organisation": org.name,
            "vcs": org.num_vcs,
            "depth": org.buffer_depth,
            "flits_per_router": org.flits_per_router,
        },
         scale.base_config(
             routing="cr" if org.name.startswith("cr") else "dor",
             num_vcs=org.num_vcs,
             buffer_depth=org.buffer_depth,
             load=scale.loads[-1],
         ))
        for org in standard_organisations(scale.dims)
    ]


def from_report(report, flits_per_router, **coords) -> Row:
    return {
        "thr_per_buffer_flit": round(
            float(report["throughput"]) / flits_per_router, 4
        )
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="T03: buffer storage vs delivered throughput "
              "(top swept load)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # CR's shallow-buffer organisation delivers more throughput per
    # flit of buffer storage than any deep-FIFO DOR organisation.
    by_name = {r["organisation"]: r for r in rows}
    cr = by_name["cr_2vc_d2"]
    for name, row in by_name.items():
        if name.startswith("dor"):
            assert cr["thr_per_buffer_flit"] >= row["thr_per_buffer_flit"], row
