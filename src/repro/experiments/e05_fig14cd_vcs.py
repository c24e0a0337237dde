"""E05 (paper Fig. 14(c,d)): virtual channels under a fixed buffer budget.

"Figs. 14-(c) and (d) compare CR and DOR's performance for a range of
virtual channels.  A previous study [Dally 92] showed that virtual
channels provide more performance benefit than deep FIFO buffers.  In
the simulations, the DOR networks are given a fixed amount of total
buffer space, so more virtual channels mean a lower buffer depth."  CR
fixes each lane at two flits, and its timeout scales as
(message length) x (number of virtual channels) because a worm sharing a
physical channel with v-1 lanes advances every v-th cycle when healthy.
"""

from __future__ import annotations

from typing import List

from ..core.timeout import LengthScaledTimeout
from ..stats.report import format_series
from .common import MATRIX_COLUMNS, Row, Scale, at_top, matrix_points

#: total buffer flits per input port given to the DOR router
DOR_BUDGET = 16

COLUMNS = MATRIX_COLUMNS


def points(scale: Scale):
    base = scale.base_config(timeout=LengthScaledTimeout())
    configs = {}
    for vcs in (2, 4, 8):
        configs[f"dor_{vcs}vc_d{DOR_BUDGET // vcs}"] = base.with_(
            routing="dor", num_vcs=vcs, buffer_depth=DOR_BUDGET // vcs
        )
    for vcs in (1, 2, 4):
        configs[f"cr_{vcs}vc_d2"] = base.with_(
            routing="cr", num_vcs=vcs, buffer_depth=2
        )
    return matrix_points(configs, scale.loads)


def table(rows: List[Row]) -> str:
    latency = format_series(
        rows,
        x="load",
        y="latency_mean",
        title="E05 / Fig. 14(c,d): mean latency by VC organisation",
    )
    throughput = format_series(
        rows,
        x="load",
        y="throughput",
        title="E05 / Fig. 14(c,d): accepted throughput",
    )
    return latency + "\n\n" + throughput


def claim(rows: List[Row], scale: Scale) -> None:
    # More CR lanes must not lose throughput at the top load.
    top = at_top(rows, "config")
    assert top["cr_2vc_d2"]["throughput"] >= \
        0.8 * top["cr_1vc_d2"]["throughput"]
