"""E21 (extension): the latency distribution behind the means.

The paper's Section 7 discussion ("Delivery Guarantee and Latency
Distribution") is about the *shape* of CR's latency: most messages are
fast, but "repeated kills can give some messages much larger
latencies".  This experiment prints the actual distribution -- fixed-
width histogram bins of total latency for CR and DOR at the same load --
plus the kill-count distribution that produces CR's tail.

Runs in-process: the histogram needs every latency sample and the
ledger's kill counts, which only the live ``SimResult`` carries
(``--workers`` and the sweep cache do not apply).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from ..stats.latency import histogram
from ..stats.report import format_table
from .common import Row, Scale

BIN_WIDTH = 64
MAX_BINS = 12

COLUMNS = ("latency_bin", "cr", "dor", "load")
POINT_COLUMNS = ("scheme", "load", "latencies", "kill_counts")


def points(scale: Scale):
    load = scale.loads[len(scale.loads) // 2]
    return [
        ({"scheme": scheme, "load": load},
         scale.base_config(routing=scheme, num_vcs=2, load=load))
        for scheme in ("cr", "dor")
    ]


def from_result(result, **coords) -> Row:
    return {
        "latencies": list(result.stats.total_latencies),
        "kill_counts": Counter(
            msg.kills + msg.fkills
            for msg in result.ledger.deliveries
            if msg.measured
        ),
    }


def combine(rows: List[Row], scale: Scale) -> List[Row]:
    """Both runs' samples, binned side by side; then CR's kill counts."""
    load = rows[0]["load"]
    bins: Dict[int, Dict[str, int]] = {}
    for run in rows:
        for start, count in histogram(run["latencies"], BIN_WIDTH):
            bins.setdefault(start, {})[run["scheme"]] = count
    out: List[Row] = []
    overflow = {"cr": 0, "dor": 0}
    for index, start in enumerate(sorted(bins)):
        entry = bins[start]
        if index < MAX_BINS:
            out.append(
                {
                    "latency_bin": f"{start}-{start + BIN_WIDTH - 1}",
                    "cr": entry.get("cr", 0),
                    "dor": entry.get("dor", 0),
                    "load": load,
                }
            )
        else:
            overflow["cr"] += entry.get("cr", 0)
            overflow["dor"] += entry.get("dor", 0)
    out.append(
        {
            "latency_bin": f">={MAX_BINS * BIN_WIDTH} (tail)",
            "cr": overflow["cr"],
            "dor": overflow["dor"],
            "load": load,
        }
    )
    kill_histogram = rows[0]["kill_counts"]
    for kills in sorted(kill_histogram):
        out.append(
            {
                "latency_bin": f"cr killed {kills}x",
                "cr": kill_histogram[kills],
                "dor": "",
                "load": load,
            }
        )
    return out


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        ["latency_bin", "cr", "dor"],
        title=f"E21: latency distribution (bin width {BIN_WIDTH} cycles) "
              "and CR kill counts",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    kill_rows = [
        r for r in rows if str(r["latency_bin"]).startswith("cr killed")
    ]
    assert kill_rows, "kill-count distribution missing"
    counts = [int(r["cr"]) for r in kill_rows]
    # The modal experience is zero kills...
    assert counts[0] == max(counts)
    # ...and the latency histogram covers both schemes.
    latency_rows = [r for r in rows if r not in kill_rows]
    assert sum(int(r["cr"]) for r in latency_rows) > 0
    assert sum(int(r["dor"] or 0) for r in latency_rows) > 0
