"""E17 (ablation): decomposing CR -- recovery vs adaptivity.

CR bundles two mechanisms: deadlock *recovery* (timeout/kill/retry,
which removes the virtual-channel requirement) and fully *adaptive*
routing (which recovery makes safe).  This ablation separates their
contributions on a torus, everything else equal (1 VC, 2-flit buffers,
uniform traffic):

* ``dor``        deterministic + dateline VCs (needs 2 VCs; the baseline),
* ``dor+cr``     deterministic relation + CR recovery, 1 VC: recovery
                 replaces the datelines but adds padding/kill overhead
                 and no path diversity,
* ``cr``         adaptive + CR recovery, 1 VC: the full framework.

Expected shape: ``dor+cr`` roughly tracks ``dor`` (recovery alone buys
the VC back but no performance), while ``cr`` pulls ahead -- the win
comes from adaptivity, which only recovery makes affordable.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_series
from .common import MATRIX_COLUMNS, Row, Scale, at_top, matrix_points

COLUMNS = MATRIX_COLUMNS


def points(scale: Scale):
    base = scale.base_config(buffer_depth=2)
    configs = {
        "dor_2vc": base.with_(routing="dor", num_vcs=2),
        "dor+cr_1vc": base.with_(routing="dor+cr", num_vcs=1),
        "cr_1vc": base.with_(routing="cr", num_vcs=1),
    }
    return matrix_points(configs, scale.loads)


def table(rows: List[Row]) -> str:
    latency = format_series(
        rows,
        x="load",
        y="latency_mean",
        title="E17 ablation: mean latency (recovery vs adaptivity)",
    )
    throughput = format_series(
        rows,
        x="load",
        y="throughput",
        title="E17 ablation: accepted throughput",
    )
    kills = format_series(
        rows,
        x="load",
        y="kill_rate",
        title="E17 ablation: kills per delivered message",
    )
    return "\n\n".join([latency, throughput, kills])


def claim(rows: List[Row], scale: Scale) -> None:
    # The win comes from adaptivity: full CR beats the recovery-only
    # variant at saturation...
    top = at_top(rows, "config")
    assert top["cr_1vc"]["throughput"] >= top["dor+cr_1vc"]["throughput"]
    # ...which does exercise recovery (it merely buys back the
    # dateline VCs).
    assert any(
        r["kill_rate"] > 0 for r in rows if r["config"] == "dor+cr_1vc"
    )
