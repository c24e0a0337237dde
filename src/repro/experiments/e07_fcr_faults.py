"""E07 (paper Section 6.2): FCR under a range of transient fault rates.

"We explore the performance of Fault-tolerant Compressionless Routing
(FCR) with a range of fault rates.  FCR networks tolerate any transient
faults."  Two properties are checked: *integrity* (no corrupt payload is
ever delivered -- the ledger raises if one is) and *graceful
degradation* (latency grows with the fault rate through FKILL retries,
but every message still arrives).
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale

FAULT_RATES = (0.0, 1e-4, 1e-3, 5e-3)

COLUMNS = (
    "fault_rate", "load", "latency_mean", "latency_p99", "throughput",
    ("fkills", "kills_fkill"), ("header_kills", "kills_header_fault"),
    "faults_injected", "corrupt_deliveries", "late_corruption",
    ("delivered", "messages_delivered"), "undelivered",
)


def points(scale: Scale):
    load = scale.loads[0]
    base = scale.base_config(
        routing="fcr", load=load, drain=scale.drain * 2
    )
    return [
        ({"fault_rate": rate, "load": load}, base.with_(fault_rate=rate))
        for rate in FAULT_RATES
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "fault_rate",
            "latency_mean",
            "latency_p99",
            "throughput",
            "fkills",
            "header_kills",
            "faults_injected",
            "corrupt_deliveries",
            "undelivered",
        ],
        title="E07: FCR under transient faults (corrupt_deliveries must be 0)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # Integrity: nothing corrupt is ever delivered...
    for r in rows:
        assert r["corrupt_deliveries"] == 0
        assert r["late_corruption"] == 0
    # ...and higher fault rates trigger more recoveries.
    recoveries = [r["fkills"] + r["header_kills"] for r in rows]
    assert recoveries[-1] > recoveries[0]
