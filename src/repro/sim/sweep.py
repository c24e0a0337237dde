"""Parameter sweeps: the workhorse behind every figure reproduction.

All sweep helpers route through :func:`repro.sim.parallel.run_reports`,
so they share one execution story: ``workers=1`` (default) preserves
the exact serial behaviour, ``workers=N`` fans points out over a
process pool with byte-identical rows, ``cache=`` reuses on-disk
results across invocations, and ``progress=`` reports per-point status
on long sweeps.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from .config import SimConfig
from .parallel import CacheSpec, ProgressCallback, Report, run_reports
from .simulator import SimResult

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


def result_row(result: SimResult, fields: Sequence[str] = DEFAULT_FIELDS) -> Row:
    """:func:`report_row` over a :class:`SimResult`'s report."""
    return report_row(result.report, fields)


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


def _coords_then(fields: Sequence[str]):
    return lambda coords, report: {**coords, **report_row(report, fields)}


def load_sweep(
    base: SimConfig,
    loads: Iterable[float],
    fields: Sequence[str] = DEFAULT_FIELDS,
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
    return point_rows(points, _coords_then(fields), workers, cache, progress)


def param_sweep(
    base: SimConfig,
    param: str,
    values: Iterable[Any],
    fields: Sequence[str] = DEFAULT_FIELDS,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Row]:
    """Run ``base`` with ``param`` set to each value; one row each."""
    points = [
        ({param: value}, base.with_(**{param: value})) for value in values
    ]
    return point_rows(points, _coords_then(fields), workers, cache, progress)


def matrix_sweep(
    configs: Dict[str, SimConfig],
    loads: Iterable[float],
    fields: Sequence[str] = DEFAULT_FIELDS,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Row]:
    """Several labelled configurations across the same load axis.

    This is the shape of the paper's comparison figures: one curve per
    configuration (CR vs DOR at various buffer depths, VC counts, ...),
    sharing the offered-load x-axis.
    """
    return point_rows(
        matrix_points(configs, loads), _coords_then(fields),
        workers, cache, progress,
    )


def saturation_load(
    base: SimConfig,
    loads: Iterable[float],
    latency_limit_factor: float = 5.0,
    baseline: Optional[float] = None,
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
) -> float:
    """Estimate the saturation point of a configuration.

    Returns the highest swept load whose mean latency stays under
    ``latency_limit_factor`` times the baseline latency (a standard
    operational definition of the saturation knee).  The baseline is
    the lowest-load latency unless an external ``baseline`` (e.g. an
    analytical zero-load latency) is supplied.

    Returns ``0.0`` when the configuration is saturated below the sweep
    floor: the lowest swept point delivers nothing (zero-delivery points
    have no finite latency) or already exceeds the latency limit against
    an external baseline.  A later zero-delivery point is treated as
    past the knee, same as a latency blow-up.

    With ``workers > 1`` the whole load ladder is evaluated
    speculatively in parallel; points above the knee are wasted work,
    but the wall clock is one point, not the ladder.  ``workers=1``
    keeps the serial early-exit behaviour.
    """
    load_list = sorted(loads)
    if not load_list:
        raise ValueError("need at least one load")

    speculative = workers is None or workers > 1
    if speculative:
        reports = run_reports(
            [base.with_(load=load) for load in load_list],
            workers=workers, cache=cache,
        )
        latencies = [float(report["latency_mean"]) for report in reports]

        def latency_at(index: int) -> float:
            return latencies[index]

    else:

        def latency_at(index: int) -> float:
            report = run_reports(
                [base.with_(load=load_list[index])],
                workers=1, cache=cache,
            )[0]
            return float(report["latency_mean"])

    first = latency_at(0)
    if first <= 0:
        return 0.0  # nothing delivered at the sweep floor
    limit = latency_limit_factor * (baseline if baseline is not None else first)
    if first > limit:
        return 0.0  # sweep floor already past the knee (external baseline)
    saturated_at = load_list[0]
    for index in range(1, len(load_list)):
        latency = latency_at(index)
        if latency <= 0 or latency > limit:
            break
        saturated_at = load_list[index]
    return saturated_at
