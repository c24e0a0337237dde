"""E19 (extension): CR vs drop-at-block, its Related-Work ancestor.

Paper Section 8: "The basic technique used in Compressionless Routing,
drop-at-block, is not new; machines as early as the BBN Butterfly and
network designs such as the MIT Transit use similar techniques. ...
The dropping strategy can improve network utilization by eliminating
secondary conflicts.  Our work on Compressionless Routing extends that
work, providing a practical framework ... support of arbitrary
topologies, order preserving transmission, end-to-end flow control, and
fault tolerance."

So the comparison is not raw speed -- dropping early can even *win* on
latency by clearing conflicts aggressively (and it does here, which the
table reports honestly).  What CR buys over drop-at-block is measured in
the other columns:

* kills: dropping fires on every conflict, CR only past a timeout;
* source buffering (``copy_held``): a drop-at-block sender must hold
  each message until it knows delivery happened (here charitably
  modelled as the delivery time); a CR sender releases at *commit*,
  when the tail leaves -- the flow-control handshake is the ack;
* ordering: drop-and-retry reorders same-pair messages freely; CR's
  commit gating keeps them FIFO.

Runs in-process: release times and FIFO violations come from the
delivery ledger, which only the live ``SimResult`` carries
(``--workers`` and the sweep cache do not apply).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..stats.report import format_table
from .common import Row, Scale, at_top

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..sim.simulator import SimResult

COLUMNS = (
    "load", "scheme", "latency_mean", "throughput", "kills", "kill_rate",
    "copy_held", "fifo_violations",
)


def points(scale: Scale):
    # CR runs with its order gate (part of the framework); drop-at-block
    # cannot provide ordering from commit gating (no padding lemma), so
    # it runs ungated.
    return [
        ({"load": load, "scheme": scheme},
         scale.base_config(
             routing=scheme,
             num_vcs=1,
             load=load,
             order_preserving=(scheme == "cr"),
         ))
        for load in scale.loads
        for scheme in ("cr", "drop")
    ]


def from_result(result: SimResult, scheme, **coords) -> Row:
    # Cycles the source must buffer a message: until commit under CR,
    # until delivery under drop-at-block.
    release_attr = "committed_at" if scheme == "cr" else "delivered_at"
    held = [
        getattr(msg, release_attr) - msg.created_at
        for msg in result.ledger.deliveries
        if msg.measured and getattr(msg, release_attr) is not None
    ]
    return {
        "copy_held": round(sum(held) / len(held) if held else 0.0, 1),
        "fifo_violations": result.ledger.count_fifo_violations(),
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E19: CR vs drop-at-block (BBN Butterfly lineage) -- "
              "CR pays latency for ordering + early source release",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    top = at_top(rows, "scheme")
    # Dropping fires on every conflict: more kills than timeout-based CR.
    assert top["drop"]["kills"] > top["cr"]["kills"]
    # CR keeps per-pair FIFO under kill pressure; drop-and-retry cannot.
    assert top["cr"]["fifo_violations"] == 0
    assert top["drop"]["fifo_violations"] > 0
