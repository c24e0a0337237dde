"""Shared scaffolding for the experiment modules.

An experiment module is a declaration, spelled once:

* ``points(scale)`` -- its grid: ``(coordinates, SimConfig)`` pairs;
* ``COLUMNS`` -- the columns of a row, in order.  Each is filled from
  the point's coordinates, else from the module's ``from_result`` /
  ``from_report`` columns, else from the run's report (``("name",
  "field")`` renames a report field; an unknown field raises
  ``KeyError``; :data:`SPARSE_COUNTERS` read 0 when absent);
* ``table(rows) -> str`` and ``claim(rows, scale)``, the assert block
  that states the paper's shape claim (written for ``QUICK``).

Optional: ``from_report(report, **coordinates)`` for columns computed
from a report; ``from_result(result, **coordinates)`` for columns read
off the live ``SimResult`` (ledger, stats, engine, ``cycles_run``);
``combine(rows, scale)`` where rows are not one per point (its point
rows carry ``POINT_COLUMNS`` if declared); ``rows(scale)`` instead of
``points`` for the cost-model tables that simulate nothing.
:meth:`Experiment.run` runs any of them, and how it reaches the
simulator follows from the declaration: a module that declares
``from_result`` runs in-process, every other one goes through
``run_reports`` with the scale's pool and cache.

Two standard scales are provided:

* ``QUICK`` -- an 8-ary 2-torus with short runs; used by the benchmark
  suite so the whole harness finishes in minutes on a laptop.
* ``PAPER`` -- a 16-ary 2-torus with long runs, matching the paper's
  network scale (hours of pure-Python simulation; the repro-band notes
  "slow for large traffic sweeps").

The *shapes* reported in EXPERIMENTS.md are stable across the scales;
absolute latency numbers move with network diameter, as expected.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..sim.config import SimConfig
from ..sim.simulator import run_simulation
from ..sim.sweep import (
    DEFAULT_FIELDS, Row, matrix_points, point_rows, report_row,
)

__all__ = [
    "Experiment", "Scale", "QUICK", "PAPER", "Row", "MATRIX_COLUMNS",
    "SPARSE_COUNTERS", "at_load", "at_top", "matrix_points",
]

#: the row of a :func:`matrix_points` grid: one curve per ``config``
MATRIX_COLUMNS = ("load", "config", *DEFAULT_FIELDS)

#: ``StatsCollector.counters`` is a ``Counter``: a key exists once its
#: event has happened, so the ones ``COLUMNS`` name -- and only these --
#: read 0 when absent.
SPARSE_COUNTERS = frozenset({
    "kills", "kills_fkill", "kills_header_fault", "retransmissions",
    "faults_injected", "corrupt_deliveries", "late_corruption",
    "messages_delivered", "escape_grants", "messages_used_escape",
    "probe_failures",
})


@dataclass(frozen=True)
class Scale:
    """Run-size knobs shared by all experiments."""

    name: str
    radix: int = 8
    dims: int = 2
    warmup: int = 300
    measure: int = 1500
    drain: int = 4000
    message_length: int = 16
    loads: Tuple[float, ...] = (0.1, 0.2, 0.3)
    seed: int = 42
    # Sweep execution: process-pool width (1 = serial, None = one per
    # CPU) and result-cache switch, passed through to repro.sim.sweep
    # by every experiment that sweeps.  ``cr-sim experiment --workers``
    # overrides the per-scale default.
    workers: Optional[int] = 1
    cache: bool = False
    # Arm the repro.verify invariant checker on every run (``cr-sim
    # experiment --verify``): correctness auditing at ~<10% overhead.
    verify: bool = False

    def sweep_options(self) -> Dict[str, Any]:
        """Keyword arguments experiments forward to the sweep helpers."""
        return {"workers": self.workers, "cache": self.cache}

    def base_config(self, **overrides) -> SimConfig:
        config = SimConfig(
            radix=self.radix,
            dims=self.dims,
            warmup=self.warmup,
            measure=self.measure,
            drain=self.drain,
            message_length=self.message_length,
            seed=self.seed,
            verify=self.verify or None,
        )
        return replace(config, **overrides) if overrides else config

    def scaled(self, **overrides) -> "Scale":
        return replace(self, **overrides)


QUICK = Scale(name="quick")

# Paper scale is hours of serial pure-Python simulation, so it defaults
# to one worker per CPU and the on-disk result cache; re-running a
# partially completed reproduction only simulates the missing points.
PAPER = Scale(
    name="paper",
    radix=16,
    warmup=1000,
    measure=5000,
    drain=10000,
    loads=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    workers=None,
    cache=True,
)


def _fill(columns, coords: Row, report: Dict[str, object], extra: Row) -> Row:
    row: Row = {}
    for column in columns:
        name, field = column if isinstance(column, tuple) else (column, column)
        if name in coords:
            row[name] = coords[name]
        elif name in extra:
            row[name] = extra[name]
        elif field in SPARSE_COUNTERS:
            row[name] = report.get(field, 0)
        else:
            row[name] = report_row(report, (field,))[field]
    return row


def at_load(rows: List[Row], load: object, key: str) -> Dict[object, Row]:
    """The rows at one load, by their ``key`` column (claims read these)."""
    return {row[key]: row for row in rows if row["load"] == load}


def at_top(rows: List[Row], key: str) -> Dict[object, Row]:
    """:func:`at_load` at the highest load the rows carry."""
    return at_load(rows, max(row["load"] for row in rows), key)


class Experiment:
    """A registered experiment: a module's declarations plus the runner."""

    def __init__(self, module) -> None:
        self.module = module
        self.__name__ = module.__name__
        self.__doc__ = module.__doc__
        self.table = module.table
        self.claim = module.claim
        #: the names every row carries, in order
        self.columns = tuple(
            c[0] if isinstance(c, tuple) else c for c in module.COLUMNS
        )

    def run(self, scale: Scale = QUICK) -> List[Row]:
        module = self.module
        if not hasattr(module, "points"):
            return module.rows(scale)
        points = module.points(scale)
        columns = getattr(module, "POINT_COLUMNS", module.COLUMNS)
        read = getattr(module, "from_result", None)
        if read is not None:
            rows = []
            for coords, config in points:
                result = run_simulation(config, keep_engine=True)
                rows.append(
                    _fill(columns, coords, result.report,
                          read(result, **coords))
                )
        else:
            derive = getattr(module, "from_report", None)
            rows = point_rows(
                points,
                lambda coords, report: _fill(
                    columns, coords, report,
                    derive(report, **coords) if derive else {},
                ),
                **scale.sweep_options(),
            )
        combine = getattr(module, "combine", None)
        return combine(rows, scale) if combine else rows

    def verdict(self, rows: List[Row], scale: Scale = QUICK) -> str:
        """``claim: holds`` or ``claim: FAILS — <the failed assertion>``."""
        try:
            self.claim(rows, scale)
        except AssertionError as exc:
            text = traceback.extract_tb(exc.__traceback__)[-1].line or ""
            if str(exc):
                text += f" ({exc})"
            return f"claim: FAILS — {text}"
        return "claim: holds"
