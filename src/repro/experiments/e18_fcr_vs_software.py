"""E18 (extension): FCR vs a software ack/retry layer.

The paper's closing argument: FCR "eliminat[es] the need for software
buffering and retry for reliability" and avoids acknowledgement schemes
that "consume substantial network bandwidth".  This experiment makes the
comparison concrete: the same unreliable network (transient flit
corruption) made reliable two ways --

* ``fcr``: integrated hardware recovery (padding + FKILL + source
  retransmit; no acks, no software state), and
* ``swr``: dimension-order routing with an end-to-end software layer
  (sender buffering, per-message ACK messages, timeout retransmission,
  receiver-side checksum + dedup).

Reported per fault rate: reliable-delivery latency, goodput, and the
bandwidth overhead ratio (network flits injected per payload flit
reliably delivered -- FCR pays in pad flits and killed attempts, the
software layer pays in ACK messages, duplicate deliveries, and
retransmitted worms).

Runs in-process: the software layer's counters live on the engine, which
only the live ``SimResult`` carries (``--workers`` and the sweep cache
do not apply).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..stats.report import format_table
from .common import Row, Scale

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..sim.simulator import SimResult

FAULT_RATES = (0.0, 1e-3, 5e-3)

COLUMNS = (
    "scheme", "fault_rate", "latency", "goodput_msgs", "flits_per_payload",
    "retries", "acks", "lost",
)


def points(scale: Scale):
    base = scale.base_config(load=scale.loads[0], drain=scale.drain * 2)
    schemes = {
        "fcr": base.with_(routing="fcr"),
        "swr": base.with_(
            routing="dor", software_retry=True, order_preserving=False
        ),
    }
    return [
        ({"scheme": scheme, "fault_rate": rate},
         config.with_(fault_rate=rate))
        for rate in FAULT_RATES
        for scheme, config in schemes.items()
    ]


def from_result(result: SimResult, scheme, **coords) -> Row:
    report = result.report
    injected = report.get("flits_injected", 0)
    if scheme == "fcr":
        delivered = report.get("messages_delivered", 0)
        goodput = delivered * result.config.message_length
        return {
            "latency": report["latency_mean"],
            "goodput_msgs": delivered,
            "flits_per_payload": (
                round(injected / goodput, 3) if goodput else 0
            ),
            "retries": report.get("retransmissions", 0),
            "acks": 0,
            "lost": report["undelivered"],
        }
    layer = result.engine.reliability.report()
    goodput = layer["goodput_flits"]
    return {
        "latency": layer["host_latency_mean"],
        "goodput_msgs": layer["host_deliveries"],
        "flits_per_payload": round(injected / goodput, 3) if goodput else 0,
        "retries": layer["retransmissions"],
        "acks": layer["acks_sent"],
        "lost": layer["failures"],
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "fault_rate",
            "scheme",
            "latency",
            "goodput_msgs",
            "flits_per_payload",
            "retries",
            "acks",
            "lost",
        ],
        title="E18: reliable delivery -- FCR vs software ack/retry "
              "(flits_per_payload = bandwidth cost per delivered flit)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    fcr = {r["fault_rate"]: r for r in rows if r["scheme"] == "fcr"}
    swr = {r["fault_rate"]: r for r in rows if r["scheme"] == "swr"}
    # FCR: nonstop -- zero losses at every fault rate.
    assert all(r["lost"] == 0 for r in fcr.values())
    # Relative latency inflation under the top fault rate: FCR degrades
    # more gracefully than the software layer (whose fixed retry timer
    # and ack round-trips compound under fault pressure).
    top = max(fcr)
    fcr_inflation = fcr[top]["latency"] / max(fcr[0.0]["latency"], 1)
    swr_inflation = swr[top]["latency"] / max(swr[0.0]["latency"], 1)
    assert fcr_inflation < swr_inflation
    # The software layer pays in control traffic: one ACK per delivery.
    assert swr[0.0]["acks"] >= swr[0.0]["goodput_msgs"]
