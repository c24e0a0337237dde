"""Experiment registry: one module per paper table/figure.

See DESIGN.md for the per-experiment index mapping each id to its
evidence in the paper.  Each module declares its grid, row, table and
claim (see :mod:`.common`); :data:`REGISTRY` wraps it in an
:class:`Experiment`, whose ``run(scale) -> rows``, ``table(rows) ->
str`` and ``claim(rows, scale)`` are what the CLI, the benchmark suite,
``examples/reproduce_paper.py`` and the tests call.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict

from .common import PAPER, QUICK, Experiment, Scale

_MODULES = (
    "e01_latency_load",
    "e02_timeout_sweep",
    "e03_fig11_backoff",
    "e04_fig14ab_buffers",
    "e05_fig14cd_vcs",
    "e06_fig14ef_interface",
    "e07_fcr_faults",
    "e08_fcr_permanent",
    "e09_pds_estimate",
    "e10_pathwide",
    "e11_padding",
    "e12_ordering",
    "e13_bimodal",
    "e14_variance",
    "e15_deep_networks",
    "e16_mesh_novc",
    "e17_ablation",
    "e18_fcr_vs_software",
    "e19_drop_at_block",
    "e20_pcs",
    "e21_latency_distribution",
    "e22_clock_adjusted",
    "e23_trace_identical",
    "t01_hw_interface",
    "t02_hw_router",
    "t03_buffer_cost",
)

REGISTRY: Dict[str, Experiment] = {
    name[:3]: Experiment(import_module(f"{__name__}.{name}"))
    for name in _MODULES
}

__all__ = ["REGISTRY", "Experiment", "Scale", "QUICK", "PAPER"]
