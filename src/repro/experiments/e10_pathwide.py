"""E10: source-based vs path-wide timeout schemes (paper Sections 7-8).

"We have explored several of these and chose a source-based timeout
scheme which uses hardware at the source (injector) to identify
potential deadlock situations. ... the path-wide schemes produce
unnecessary message kills, providing inferior performance."

Why path-wide over-kills: a router sees only *local* progress.  It
cannot tell a potential deadlock from ordinary transients -- a worm
parked behind sink contention, or starved for a few cycles by virtual-
channel multiplexing -- and it cannot calibrate its threshold the way
the source can (the source knows the message length and scales its
timeout as length x VCs; a router knows neither).  Nor can a router
know that a worm's tail has already left the source, so path-wide kills
*committed* worms, forfeiting CR's implicit-acknowledgement guarantee
(this model charitably lets the source retransmit them anyway).

The experiment compares the source-based length-scaled scheme against
path-wide monitors at several thresholds: short thresholds multiply the
kill count several-fold (the paper's "unnecessary message kills"); long
thresholds recover deadlocks sluggishly.  Our substrate recovers from
kills cheaply, so the mean-latency penalty is milder than the paper
suggests -- the kill multiplication itself reproduces strongly.
"""

from __future__ import annotations

from typing import List

from ..stats.report import format_table
from .common import Row, Scale, at_load

PATH_WIDE_THRESHOLDS = (16, 64)

COLUMNS = (
    "load", "scheme", "kills", "kill_rate", "latency_mean", "latency_p99",
    "throughput", "undelivered",
)


def points(scale: Scale):
    base = scale.base_config(routing="cr", num_vcs=2)
    schemes = {"source_scaled": base}
    for cycles in PATH_WIDE_THRESHOLDS:
        schemes[f"path_wide_{cycles}"] = base.with_(path_wide_cycles=cycles)
    return [
        ({"load": load, "scheme": label}, config.with_(load=load))
        for load in scale.loads
        for label, config in schemes.items()
    ]


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        [
            "load",
            "scheme",
            "kills",
            "kill_rate",
            "latency_mean",
            "latency_p99",
            "throughput",
        ],
        title="E10: source-based vs path-wide timeout monitoring",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    # The short path-wide monitor over-kills relative to the
    # source-based scheme at the top load (unnecessary kills).
    loads = sorted({r["load"] for r in rows})
    top = at_load(rows, loads[-1], "scheme")
    assert top["path_wide_16"]["kills"] >= top["source_scaled"]["kills"]
    # On a network big enough to contend (on a 4-ary torus the kill
    # ratio at load 0.25 is 65 / 40 and path-wide delivers more) it
    # kills at least 3x as often at every load, and delivers less at
    # the top one: "inferior performance".
    if scale.radix >= 8:
        for load in loads:
            at = at_load(rows, load, "scheme")
            assert at["path_wide_16"]["kills"] >= \
                3 * at["source_scaled"]["kills"], load
        assert top["path_wide_16"]["throughput"] < \
            top["source_scaled"]["throughput"]
