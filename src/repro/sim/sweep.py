"""Sweeps: points to rows, the workhorse behind every figure reproduction.

A point is ``(coordinates, config)``.  :func:`point_rows` runs a list
of them through :func:`repro.sim.parallel.run_reports` and makes one
row per point; every experiment's grid and ``cr-sim sweep``'s load
axis (:func:`load_sweep`) go through it, so they share one execution
story: ``workers=1`` (default) preserves the exact serial behaviour,
``workers=N`` fans points out over a process pool with byte-identical
rows, ``cache=`` reuses on-disk results across invocations, and
``progress=`` reports per-point status on long sweeps.  Seeds are
replicated and compared by the campaign layer (``replications=`` and
:mod:`repro.campaign.report`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .config import SimConfig
from .parallel import CacheSpec, ProgressCallback, Report, run_reports

Row = Dict[str, object]
#: one sweep point: its coordinates (the row's leading columns) + config
Point = Tuple[Dict[str, object], SimConfig]

#: report keys every sweep row carries
DEFAULT_FIELDS = (
    "latency_mean",
    "latency_p95",
    "throughput",
    "kill_rate",
    "pad_overhead",
    "undelivered",
)


def report_row(report: Report, fields: Sequence[str] = DEFAULT_FIELDS) -> Row:
    """Project the requested fields out of one run's report dict.

    Unknown field names raise ``KeyError`` instead of silently mapping
    to 0 — a typo in a bench's ``fields=`` list used to fabricate a
    flat-zero curve that looked like a (wrong) result.
    """
    row: Row = {}
    for key in fields:
        try:
            row[key] = report[key]
        except KeyError:
            raise KeyError(
                f"field {key!r} is not in the simulation report; "
                f"available fields: {sorted(report)}"
            ) from None
    return row


def point_rows(
    points: Sequence[Point],
    fill: Callable[[Dict[str, object], Report], Row],
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Row]:
    """Points to rows: the one function under every sweep and experiment.

    A point is ``(coordinates, config)``.  All configs go to
    :func:`run_reports` as one batch -- so a process pool stays busy
    across curve boundaries -- and ``fill(coordinates, report)`` makes
    each point's row, in submission order.
    """
    reports = run_reports(
        [config for _, config in points],
        workers=workers, cache=cache, progress=progress,
    )
    return [
        fill(coords, report) for (coords, _), report in zip(points, reports)
    ]


def matrix_points(
    configs: Dict[str, SimConfig], loads: Iterable[float]
) -> List[Point]:
    """One point per labelled configuration per load, curve by curve."""
    load_list = list(loads)
    return [
        ({"load": load, "config": label}, config.with_(load=load))
        for label, config in configs.items()
        for load in load_list
    ]


def load_sweep(
    base: SimConfig,
    loads: Iterable[float],
    label: Optional[str] = None,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Row]:
    """Run ``base`` across offered loads; one row per load point."""
    if label is not None:
        points = matrix_points({label: base}, loads)
    else:
        points = [({"load": load}, base.with_(load=load)) for load in loads]
    return point_rows(
        points, lambda coords, report: {**coords, **report_row(report)},
        workers, cache, progress,
    )
