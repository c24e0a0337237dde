"""Differential engine-equivalence checking (fast vs. reference).

``FastEngine`` promises flit-for-flit identity with the reference
engine: same event stream, same report, same final channel state, same
RNG draw sequence.  This module is the enforcement tool — it runs one
configuration under both engines (each from a reset message-uid
counter) and diffs everything observable:

* the full traced event stream (every injection, stall, kill,
  delivery, fault activation, ... in order);
* the simulation report (minus the ``profile`` section, which holds
  wall times);
* a struct-of-arrays snapshot of final channel state (credits, flits
  carried, pending credit returns).

``ENGINE_EQUIVALENCE_PRESETS`` pins the configurations named in the
acceptance criteria: the e01/e07 tracing presets, an e16-style mesh
without virtual channels, and the seeded fuzz corpus is covered by
:func:`iter_fuzz_equivalence_configs`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..network.fastengine import channel_state
from ..network.message import reset_uid_counter
from ..obs.tracing import config_for_experiment, run_traced
from ..sim.config import SimConfig
from .fuzz import DEFAULT_CASES, DEFAULT_SEED, fuzz_config


def _e16_config() -> SimConfig:
    # e16 (Fig. 13): CR on a mesh with no virtual channels — the
    # paper's "adaptive routing without VCs" headline configuration.
    return SimConfig(
        topology="mesh", routing="cr", num_vcs=1, radix=8, dims=2,
        load=0.3, message_length=16, warmup=300, measure=1500,
        drain=4000,
    )


def engine_equivalence_presets() -> Dict[str, SimConfig]:
    """The acceptance presets: e01, e07, and an e16-style mesh run."""
    return {
        "e01": config_for_experiment("e01"),
        "e07": config_for_experiment("e07"),
        "e16": _e16_config(),
    }


#: preset names, importable for test parametrization.
ENGINE_EQUIVALENCE_PRESETS = ("e01", "e07", "e16")


def run_engine_snapshot(config: SimConfig, engine: str) -> Tuple:
    """(events, report, channel-state) for ``config`` under ``engine``.

    The message-uid counter is reset first so both runs number their
    messages identically; the ``profile`` report section is dropped
    because it holds wall-clock times.
    """
    reset_uid_counter()
    traced = run_traced(config.with_(engine=engine), keep_engine=True)
    report = dict(traced.report)
    report.pop("profile", None)
    return traced.events, report, channel_state(traced.result.engine)


def assert_engines_equivalent(config: SimConfig, label: str = "") -> None:
    """Run ``config`` under both engines and assert identical output.

    Raises ``AssertionError`` naming the first divergence (event index,
    report key, or final channel state) — the format the equivalence
    tests and the CI job surface on failure.
    """
    ref_events, ref_report, ref_state = run_engine_snapshot(
        config, "reference"
    )
    fast_events, fast_report, fast_state = run_engine_snapshot(
        config, "fast"
    )
    prefix = f"{label}: " if label else ""
    for index, (ref, fast) in enumerate(zip(ref_events, fast_events)):
        assert ref == fast, (
            f"{prefix}event {index} diverges:\n"
            f"  reference: {ref}\n  fast:      {fast}"
        )
    assert len(ref_events) == len(fast_events), (
        f"{prefix}event count diverges: reference {len(ref_events)} "
        f"vs fast {len(fast_events)}"
    )
    for key in sorted(set(ref_report) | set(fast_report)):
        assert ref_report.get(key) == fast_report.get(key), (
            f"{prefix}report[{key!r}] diverges"
        )
    assert ref_state == fast_state, (
        f"{prefix}final channel state diverges"
    )


def workload_equivalence_configs() -> Dict[str, SimConfig]:
    """The workload corpus: every repro.workload mode plus cascades.

    Small networks and short phases keep the dual runs quick; each
    config exercises a distinct fast-engine skip path — per-cycle-draw
    pacing (MMPP), renewal wake events (Pareto), pure scheduled
    arrivals (incast, trace), delivery-triggered replies
    (client-server), phase windows (phased), and check-interval
    boundaries (cascade).
    """
    base = SimConfig(
        radix=4, dims=2, message_length=8, load=0.3,
        warmup=60, measure=300, drain=1500, seed=11,
    )
    return {
        "mmpp": base.with_(workload="mmpp:mean_on=16,mean_off=48"),
        "pareto": base.with_(workload="pareto:alpha=1.3"),
        "incast": base.with_(workload="incast:period=32,fanin=4"),
        "client-server": base.with_(
            workload="client-server:servers=2,service=4", drain=4000
        ),
        "phased": base.with_(workload="phased"),
        "trace": base.with_(workload={
            "kind": "trace",
            "entries": [
                (0, 1, 14, 8), (0, 2, 13, 6), (5, 3, 12, 8),
                (40, 4, 11, 8), (41, 5, 10, 4), (200, 6, 9, 8),
                (260, 7, 8, 8), (261, 0, 15, 8),
            ],
        }),
        "cascade": base.with_(
            routing="fcr", misrouting=True, workload="mmpp",
            drain=4000,
            cascade_faults=(
                "base_hazard=1e-4,load_gain=8,check_interval=16,"
                "neighbor_boost=10,boost_cycles=96,repair_cycles=300"
            ),
        ),
    }


#: workload preset names, importable for test parametrization.
WORKLOAD_EQUIVALENCE_PRESETS = (
    "mmpp", "pareto", "incast", "client-server", "phased", "trace",
    "cascade",
)


def iter_fuzz_equivalence_configs() -> Iterator[Tuple[int, SimConfig]]:
    """The fuzz corpus as (index, config) pairs for equivalence runs.

    The verify checker stays armed (every fuzz config arms it), so each
    dual run checks both invariants *and* engine identity.
    """
    for index in range(DEFAULT_CASES):
        yield index, fuzz_config(DEFAULT_SEED, index)
