"""Opt-in engine self-profiler: wall time attributed to engine phases.

The CR/FCR protocol's costs are temporal, so knowing *which engine
phase is hot* — kill wavefront propagation vs. routing vs. credit
ticks — matters as much as end-to-end numbers.  The profiler follows
the same guard discipline as `repro.obs` and `repro.verify`: the
engine holds ``self.profiler = None`` and the unprofiled hot path pays
exactly one is-None check per step.  A cycle is a walk over the
engine's *phase table* -- an ordered tuple of ``(phase name,
callable(now))`` (``Engine._phase_table``, shared; each engine binds
its own bodies to the names, and the fast one adds event skipping).
When armed (``SimConfig(profile=True)``), the engine hands the same
tuple to :meth:`EngineProfiler.timed_cycle`, which walks it with a
``perf_counter_ns`` bracket per entry -- one loop, timed or not.

Phase taxonomy (:data:`PHASES`):

========== ==========================================================
credit     channel credit/pipeline ticks
fault      fault-model activation sweep
arrival    merging flits landed on input buffers
ejection   receivers consuming flits off ejection channels
kill       kill wavefront propagation (KillManager.advance)
traffic    traffic generation + reliability-layer ticks
injection  injector stepping and PCS circuit management
routing    header routing / VC allocation
switch     switch traversal (flit transfers)
monitor    path-wide + drop-at-block monitors and the watchdog
sampler    IntervalSampler time-series overhead (when attached)
checker    InvariantChecker sweep overhead (when attached)
idle       cycles elided by the fast engine's event skipping
========== ==========================================================

Per-phase counters: calls, wall-ns, max single-call ns.  The profiler
also keeps the *outer* per-step wall time, so the per-phase sum is
always ≤ the total (timer overhead and inter-phase glue land in the
gap) — an inequality the CI smoke job asserts.  Optional periodic
snapshots (one per ``snapshot_interval`` boundary the clock crosses,
whether a cycle was stepped or skipped over it) feed a Chrome-trace
*counter track* that :func:`repro.obs.perfetto.chrome_trace` merges
into the span view.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: phase names in engine execution order.
PHASES: Tuple[str, ...] = (
    "credit", "fault", "arrival", "ejection", "kill", "traffic",
    "injection", "routing", "switch", "monitor", "sampler", "checker",
    "idle",
)

_PHASE_HELP: Dict[str, str] = {
    "credit": "channel credit/pipeline ticks",
    "fault": "fault-model activation sweep",
    "arrival": "merging flits landed on input buffers",
    "ejection": "receivers consuming flits off ejection channels",
    "kill": "kill wavefront propagation",
    "traffic": "traffic generation + reliability ticks",
    "injection": "injector stepping and PCS circuits",
    "routing": "header routing / VC allocation",
    "switch": "switch traversal (flit transfers)",
    "monitor": "progress monitors and the watchdog",
    "sampler": "interval sampler overhead",
    "checker": "invariant checker overhead",
    "idle": "cycles elided by event skipping (fast engine)",
}


class PhaseStats:
    """Accumulated timing for one engine phase."""

    __slots__ = ("calls", "wall_ns", "max_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_ns = 0
        self.max_ns = 0

    def record(self, ns: int) -> None:
        self.calls += 1
        self.wall_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns

    def as_dict(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "wall_ns": self.wall_ns,
            "max_ns": self.max_ns,
        }


class EngineProfiler:
    """Phase-scoped wall-time accounting for a profiled engine.

    ``snapshot_interval`` (cycles) > 0 arms periodic per-phase delta
    snapshots for the Chrome counter track; 0 disables them (the
    per-phase totals are always kept).
    """

    def __init__(self, snapshot_interval: int = 0) -> None:
        if snapshot_interval < 0:
            raise ValueError("snapshot_interval must be >= 0")
        self.snapshot_interval = snapshot_interval
        self.phases: Dict[str, PhaseStats] = {
            name: PhaseStats() for name in PHASES
        }
        self.cycles = 0
        self.step_wall_ns = 0
        # (cycle, {phase: delta_ns}) rows for the counter track.
        self.snapshots: List[Tuple[int, Dict[str, int]]] = []
        self._last_snapshot: Dict[str, int] = {
            name: 0 for name in PHASES
        }

    # -- recording (called from Engine._cycle / FastEngine._skip) --------

    def timed_cycle(
        self, table: Sequence[Tuple[str, Callable[[int], None]]], now: int
    ) -> None:
        """Walk the engine's phase table for cycle ``now``, timing each
        entry under its name."""
        clock = perf_counter_ns
        phases = self.phases
        step_start = clock()
        for name, phase in table:
            t0 = clock()
            phase(now)
            phases[name].record(clock() - t0)
        self.on_step_end(now, clock() - step_start)

    def on_step_end(self, now: int, step_ns: int) -> None:
        self.cycles += 1
        self.step_wall_ns += step_ns
        interval = self.snapshot_interval
        if interval and (now + 1) % interval == 0:
            self._snapshot(now + 1)

    def on_idle(self, now: int, cycles: int, idle_ns: int) -> None:
        """Account the ``cycles`` event-skipped cycles starting at
        ``now`` (fast engine).

        The skipped span is attributed to the explicit ``idle`` phase
        and counted into both the cycle total and the outer step wall
        time, preserving the phase-sum ≤ step-total invariant that the
        CI smoke job asserts.
        """
        self.phases["idle"].record(idle_ns)
        self.cycles += cycles
        self.step_wall_ns += idle_ns
        interval = self.snapshot_interval
        if interval:
            # Every window boundary the span crossed closes, as it
            # would have had the cycles been stepped; the first one
            # takes the accumulated deltas.
            for boundary in range(
                now - now % interval + interval, now + cycles + 1, interval
            ):
                self._snapshot(boundary)

    def _snapshot(self, cycle: int) -> None:
        delta = {}
        last = self._last_snapshot
        for name, stats in self.phases.items():
            delta[name] = stats.wall_ns - last[name]
            last[name] = stats.wall_ns
        self.snapshots.append((cycle, delta))

    # -- reporting ------------------------------------------------------

    def phase_wall_ns(self) -> int:
        """Sum of attributed per-phase wall time (≤ step_wall_ns)."""
        return sum(stats.wall_ns for stats in self.phases.values())

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready profile summary (lands in report["profile"])."""
        total = self.step_wall_ns
        phases = {}
        for name in PHASES:
            stats = self.phases[name]
            entry = stats.as_dict()
            entry["share"] = (stats.wall_ns / total) if total else 0.0
            phases[name] = entry
        return {
            "cycles": self.cycles,
            "step_wall_ns": total,
            "phase_wall_ns": self.phase_wall_ns(),
            "phases": phases,
        }

    def hotspot_rows(self) -> List[Dict[str, Any]]:
        """Per-phase rows sorted hottest-first (for format_table)."""
        total = self.step_wall_ns or 1
        rows = []
        for name in PHASES:
            stats = self.phases[name]
            rows.append({
                "phase": name,
                "calls": stats.calls,
                "wall_ms": stats.wall_ns / 1e6,
                "share_pct": 100.0 * stats.wall_ns / total,
                "mean_us": (stats.wall_ns / stats.calls / 1e3
                            if stats.calls else 0.0),
                "max_us": stats.max_ns / 1e3,
            })
        rows.sort(key=lambda row: -row["wall_ms"])
        return rows

    def hotspot_markdown(self) -> str:
        """The hotspot report as a markdown table."""
        lines = [
            "# Engine phase hotspots",
            "",
            f"- cycles profiled: {self.cycles}",
            f"- total step wall time: {self.step_wall_ns / 1e6:.2f} ms",
            f"- attributed to phases: {self.phase_wall_ns() / 1e6:.2f} "
            "ms (gap = timer + glue overhead)",
            "",
            "| phase | calls | wall ms | share | mean µs | max µs | "
            "what |",
            "| --- | ---: | ---: | ---: | ---: | ---: | --- |",
        ]
        for row in self.hotspot_rows():
            lines.append(
                f"| {row['phase']} | {row['calls']} "
                f"| {row['wall_ms']:.3f} | {row['share_pct']:.1f}% "
                f"| {row['mean_us']:.2f} | {row['max_us']:.2f} "
                f"| {_PHASE_HELP[row['phase']]} |"
            )
        return "\n".join(lines) + "\n"

    def counter_track_events(self) -> List[Dict[str, Any]]:
        """Chrome-trace counter entries ("ph": "C") from the snapshots.

        One counter sample per snapshot at its closing cycle (trace ts
        is in simulated cycles, matching the span export's 1 µs = 1
        cycle convention); args are per-phase wall-µs spent in the
        window, so Perfetto plots a stacked where-did-the-time-go
        track under the message spans.
        """
        events = []
        for cycle, delta in self.snapshots:
            args = {
                name: delta[name] / 1e3
                for name in PHASES
                if delta[name]
            }
            if not args:
                continue
            events.append({
                "name": "engine phase wall µs",
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "ts": cycle,
                "args": args,
            })
        return events


__all__ = ["PHASES", "PhaseStats", "EngineProfiler"]
