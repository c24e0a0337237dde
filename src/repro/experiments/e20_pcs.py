"""E20 (extension): CR vs pipelined circuit switching (PCS).

Paper Section 2.2 / Related Work: "Gaughan and Yalamanchili enhanced
pipelined circuit switching, a variant of wormhole routing, with
backtracking to provide fault-tolerance."  PCS and CR solve the same
two problems with opposite philosophies:

* PCS is *conservative*: search first (backtracking probe), move data
  only on a reserved circuit -- data never blocks, never dies; the cost
  is a setup round trip and channel time held during the search.
* CR is *optimistic*: move data immediately, kill and retry when the
  gamble fails; the cost is padding and occasional wasted transmission.

Part (a) compares them on a healthy torus across load; part (b) under
permanent link faults, comparing recovery effort (CR kills vs PCS
backtracks) and delivery completeness.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale, at_top

COLUMNS = (
    "part", "load", "scheme", "dead_links", "latency_mean", "latency_p99",
    "throughput", "recovery_events", ("setup_failures", "probe_failures"),
    "undelivered",
)


def _point(scale: Scale, scheme: str, load: float, faults: int):
    config = scale.base_config(
        routing=scheme,
        num_vcs=1,
        load=load,
        permanent_faults=faults,
        misrouting=faults > 0,  # both schemes detour around faults
        drain=scale.drain * (2 if faults else 1),
    )
    coords = {
        "part": "faults" if faults else "healthy",
        "load": load,
        "scheme": scheme,
        "dead_links": 2 * faults,
    }
    return coords, config


def points(scale: Scale):
    healthy = [
        _point(scale, scheme, load, faults=0)
        for load in scale.loads
        for scheme in ("cr", "pcs")
    ]
    return healthy + [
        _point(scale, scheme, scale.loads[0], faults=2)
        for scheme in ("cr", "pcs")
    ]


def from_report(report, **coords) -> Row:
    return {
        "recovery_events": (
            report.get("kills", 0) + report.get("probe_backtracks", 0)
        )
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E20: CR (optimistic kill/retry) vs PCS "
              "(conservative probe/reserve)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Both schemes deliver everything, healthy and faulted.
    assert all(r["undelivered"] == 0 for r in rows)
    top = at_top([r for r in rows if r["part"] == "healthy"], "scheme")
    # Probes search constantly: far more (cheap) recovery events than
    # CR's (expensive) kills...
    assert top["pcs"]["recovery_events"] > top["cr"]["recovery_events"]
    # ...and some probe attempts fail outright and are retried.
    assert top["pcs"]["setup_failures"] > 0
