"""E01: baseline latency-vs-load, CR vs DOR with equal resources.

The paper's headline comparison: "CR and FCR networks can achieve
superior performance to alternatives such as dimension-order routing"
and "CR outperforms DOR with equal resources on uniform traffic".
Equal resources means the same virtual-channel count and per-VC buffer
depth: DOR spends its two VCs on dateline deadlock avoidance, CR spends
them as adaptive lanes and recovers from deadlock by kill/retry.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_series
from .common import MATRIX_COLUMNS, Row, Scale, at_load, matrix_points

COLUMNS = MATRIX_COLUMNS


def points(scale: Scale):
    base = scale.base_config(num_vcs=2, buffer_depth=2)
    configs = {
        "cr_2vc": base.with_(routing="cr"),
        "dor_2vc": base.with_(routing="dor"),
    }
    return matrix_points(configs, scale.loads)


def table(rows: List[Row]) -> str:
    latency = format_series(
        rows, x="load", y="latency_mean", title="E01 mean latency (cycles)"
    )
    throughput = format_series(
        rows,
        x="load",
        y="throughput",
        title="E01 accepted throughput (flits/node/cycle)",
    )
    return latency + "\n\n" + throughput


def claim(rows: List[Row], scale: Scale) -> None:
    # A crossover, not dominance: below the knee CR's pad flits cost it
    # latency (EXPERIMENTS.md E01); past it CR wins both latency and
    # accepted throughput at equal resources.
    loads = sorted({r["load"] for r in rows})
    low = at_load(rows, loads[0], "config")
    top = at_load(rows, loads[-1], "config")
    assert low["cr_2vc"]["latency_mean"] > low["dor_2vc"]["latency_mean"]
    assert top["cr_2vc"]["latency_mean"] < top["dor_2vc"]["latency_mean"]
    assert top["cr_2vc"]["throughput"] >= top["dor_2vc"]["throughput"]
