"""E16 (extension): the two virtual-channel-free schemes, head to head.

The paper positions the turn model as the other way to route adaptively
without virtual channels: "Ni and Glass have developed a unique approach
to adaptive routing which prevents deadlock without virtual channels by
prohibiting turns.  However, this approach only works for meshes; in
tori ... additional virtual channels are required."

On a mesh -- the only ground where both compete -- this experiment runs
CR (fully adaptive, recovery-based) against negative-first (partially
adaptive, restriction-based) and dimension-order, all with ONE virtual
channel, on uniform and transpose traffic.  CR buys full adaptivity at
the price of padding and occasional kills; the turn model is free of
both but restricted in which paths it may use.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale

SCHEMES = ("cr", "turn", "dor")
PATTERNS = ("uniform", "transpose")

COLUMNS = (
    "pattern", "routing", "load", "latency_mean", "latency_p95",
    "throughput", "kills", "pad_overhead",
)


def points(scale: Scale):
    load = scale.loads[len(scale.loads) // 2]
    return [
        ({"pattern": pattern, "routing": routing, "load": load},
         scale.base_config(
             topology="mesh",
             routing=routing,
             num_vcs=1,
             load=load,
             pattern=pattern,
         ))
        for pattern in PATTERNS
        for routing in SCHEMES
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "pattern",
            "routing",
            "latency_mean",
            "latency_p95",
            "throughput",
            "kills",
            "pad_overhead",
        ],
        title="E16: VC-free schemes on a mesh (CR vs turn model vs DOR, "
              "1 VC each)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # On transpose, full adaptivity (CR) beats deterministic DOR.
    tr = {r["routing"]: r for r in rows if r["pattern"] == "transpose"}
    assert tr["cr"]["throughput"] >= tr["dor"]["throughput"]
