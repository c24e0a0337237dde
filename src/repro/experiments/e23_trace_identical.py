"""E23 (methodology): the headline comparison on byte-identical traces.

E01 compares CR and DOR under open-loop generation with blocked-source
semantics, so near saturation the two schemes are *offered* slightly
different workloads (a backed-up scheme suppresses its own sources).
This experiment removes that coupling: the workload is recorded once
per load (`repro.workload.record_trace`) and replayed
byte-identically into both schemes; every message is eventually
admitted and delivered, so the delta is purely the routing scheme's.

Reported per load: completion time of the whole workload (makespan),
mean latency, and kills.  If E01's conclusion is methodology-robust,
CR must finish the saturating workloads sooner.

Runs in-process: the makespan is ``cycles_run``, which only the live
``SimResult`` carries (``--workers`` and the sweep cache do not apply).
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from ..workload.spec import record_trace
from .common import Row, Scale, at_top

COLUMNS = (
    "load", "scheme", "workload_msgs", ("delivered", "messages_delivered"),
    "makespan", "latency_mean", "kills", "undelivered",
)


def points(scale: Scale):
    out = []
    for load in tuple(scale.loads) + (round(scale.loads[-1] + 0.2, 3),):
        entries = record_trace(scale.base_config(load=load))
        out += [
            ({"load": load, "scheme": scheme, "workload_msgs": len(entries)},
             scale.base_config(
                 routing=scheme,
                 num_vcs=2,
                 load=load,
                 workload={"kind": "trace", "entries": entries},
                 drain=scale.drain * 4,
             ))
            for scheme in ("cr", "dor")
        ]
    return out


def from_result(result, **coords) -> Row:
    return {"makespan": result.cycles_run}


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E23: CR vs DOR on byte-identical recorded workloads "
              "(makespan = cycles to deliver everything)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Both schemes deliver every recorded message...
    assert all(r["undelivered"] == 0 for r in rows)
    assert all(r["delivered"] == r["workload_msgs"] for r in rows)
    # ...and CR completes the saturating workload sooner: E01's
    # conclusion without the blocked-source coupling.
    top = at_top(rows, "scheme")
    assert top["cr"]["makespan"] < top["dor"]["makespan"]
