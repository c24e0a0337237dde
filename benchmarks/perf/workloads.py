"""The seven workloads: what one pass runs, and how its outputs are checked.

Every workload exposes the same four things to ``run.py``:

* ``setup(timer)`` -- one untimed-for-the-metrics warm-up pass (bytecode,
  ``RoutingTable`` memo, SQLite page cache), run several times on its own
  :class:`~timing.PassTimer` so ``setup_s`` is as steady as the rest;
* ``one_pass(timer, spans)`` -- one closed-loop pass, cut into segments
  with ``timer.mark(label)``; the next point starts when the previous
  returns;
* ``points`` / ``cycles`` / ``flits`` / ``sim`` -- what a pass simulates;
* ``check`` -- every point of every pass is verified (see :class:`Checker`).

Engine workloads drive ``SimConfig.build`` / ``Engine.run`` /
``Engine.run_until_drained`` / ``stats.report`` themselves, k cycles at a
time, because a segment has to be a few ms long (see ``timing``);
``golden.json`` is generated through the unchunked ``run_simulation``,
so a digest match also proves the chunked drive changes nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    Coordinator,
    Worker,
    run_campaign,
)
from repro.network.message import reset_uid_counter
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

from timing import PassTimer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 42

#: report keys the instrumentation variants add; the digest leaves them
#: out so a profiled / verified / sampled run must match the plain one.
INSTRUMENT_KEYS = ("profile", "verify", "timeseries", "alerts",
                   "alerts_summary")

#: every engine workload runs the e01 set-up (EXPERIMENTS.md E01).
E01 = dict(radix=8, dims=2, message_length=16, num_vcs=2, buffer_depth=2)

#: load-dependent cascading faults as tuned for the cascade-stress preset.
CASCADE_FAULTS = dict(base_hazard=1e-6, load_gain=8.0, check_interval=16,
                      neighbor_boost=25.0, boost_cycles=192,
                      max_dead_fraction=0.06)

#: run phases per scale.  ``full`` is what BENCHMARK.json measures;
#: ``smoke`` only has to reach every code path fast (the harness test).
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "lowload": dict(warmup=300, measure=1200, drain=4000),
        "saturated": dict(warmup=100, measure=200, drain=3000),
        "cascade": dict(warmup=100, measure=400, drain=6000),
        "grid_replications": 4,
    },
    "smoke": {
        "lowload": dict(warmup=30, measure=80, drain=4000),
        "saturated": dict(warmup=30, measure=50, drain=3000),
        "cascade": dict(warmup=30, measure=100, drain=6000),
        "grid_replications": 1,
    },
}

GRID_METRICS = ("latency_mean", "latency_p99", "throughput", "undelivered",
                "kills", "flits_ejected")


def report_digest(report: Dict[str, Any]) -> str:
    """sha256 of the canonical report (sorted keys, instrumentation dropped)."""
    core = {k: v for k, v in report.items() if k not in INSTRUMENT_KEYS}
    blob = json.dumps(core, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def python_tag() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def load_golden() -> Dict[str, Any]:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Counts attempted / failed points; a mismatch is a failed operation.

    At the golden seed (and the Python the file was generated under --
    ``random`` and float formatting are only pinned within one) every
    point must match ``golden.json`` exactly: digest, ``cycles_run``,
    ``flits_ejected``.  At any other seed the invariants remain: the
    point drained, nothing is undelivered, and it repeats itself -- the
    first digest seen for a point id is the reference for every later
    pass, engine and instrumentation variant of this run.
    """

    def __init__(self, golden: Optional[Dict[str, Any]]) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._first: Dict[str, Tuple[str, int]] = {}

    def fail(self, point_id: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{point_id}: {why}")

    def point(self, point_id: str, report: Dict[str, Any], cycles: int,
              drained: bool) -> None:
        self.attempted += 1
        if not drained or report.get("undelivered", 0):
            return self.fail(point_id, "did not drain / undelivered > 0")
        digest = report_digest(report)
        first = self._first.setdefault(point_id, (digest, cycles))
        if first != (digest, cycles):
            return self.fail(point_id, "differs from this run's first pass")
        if self.golden is not None:
            want = self.golden.get(point_id)
            got = {"digest": digest, "cycles_run": cycles,
                   "flits_ejected": report.get("flits_ejected", 0)}
            if want != got:
                return self.fail(point_id, "differs from golden.json")

    def row(self, point_id: str, row: Optional[Dict[str, Any]],
            expected: Dict[str, Any]) -> None:
        """One campaign row against the directly simulated point."""
        self.attempted += 1
        if row is None:
            return self.fail(point_id, "row missing from the store")
        if row["status"] != "ok":
            return self.fail(point_id, f"row status {row['status']!r}")
        for key, value in expected.items():
            if row.get(key) != value:
                return self.fail(point_id, f"row {key} != direct run")


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------

def finish_report(engine: Any, config: SimConfig, drained: bool) -> Dict[str, Any]:
    """The report exactly as ``run_simulation`` assembles it."""
    report = engine.stats.report()
    report["drained"] = drained
    report["offered_load"] = config.load
    if engine.sampler is not None:
        engine.sampler.finalize(engine.now)
        report["timeseries"] = engine.sampler.rows()
    if engine.alerts is not None:
        report["alerts"] = engine.alerts.rows()
        report["alerts_summary"] = engine.alerts.summary()
    if engine.checker is not None:
        engine.checker.on_run_end(drained, engine.now)
        report["verify"] = engine.checker.summary()
    if engine.profiler is not None:
        report["profile"] = engine.profiler.summary()
    return report


class PointRun:
    """What one driven point produced."""

    __slots__ = ("report", "cycles", "active_cycles", "drained", "engine")

    def __init__(self, report: Dict[str, Any], cycles: int,
                 active_cycles: int, drained: bool, engine: Any) -> None:
        self.report = report
        self.cycles = cycles
        self.active_cycles = active_cycles
        self.drained = drained
        self.engine = engine


def drive_point(point_id: str, config: SimConfig, chunk: int,
                timer: PassTimer, spans: Any,
                arm: Optional[Callable[[Any], None]] = None) -> PointRun:
    """build -> active -> drain -> report, ``chunk`` cycles per segment."""
    reset_uid_counter()
    with spans.span("point", point=point_id):
        with spans.span("build"):
            engine = config.build()
            if arm is not None:
                arm(engine)
        timer.mark("build")
        active = config.warmup + config.measure
        with spans.span("active", cycles=active):
            left = active
            while left > 0:
                step = min(chunk, left)
                engine.run(step)
                left -= step
                timer.mark("active")
        with spans.span("drain"):
            left = config.drain
            drained = False
            while left > 0 and not drained:
                step = min(chunk, left)
                drained = engine.run_until_drained(step)
                left -= step
                timer.mark("drain")
        with spans.span("report"):
            report = finish_report(engine, config, drained)
        timer.mark("report")
    timer.pause()
    return PointRun(report, engine.now, active, drained, engine)


class EngineWorkload:
    """A fixed list of points, each driven to completion in turn."""

    kind = "engine"

    def __init__(self, name: str, points: List[Tuple[str, SimConfig]],
                 chunk: int, checker: Checker) -> None:
        self.name = name
        self.configs = points
        self.chunk = chunk
        self.check = checker
        self.last: List[PointRun] = []

    @property
    def points(self) -> int:
        return len(self.configs)

    def one_pass(self, timer: PassTimer, spans: Any,
                 transform: Optional[Callable[[SimConfig], SimConfig]] = None,
                 arm: Optional[Callable[[Any], None]] = None) -> None:
        runs = []
        with spans.span("pass", workload=self.name):
            for point_id, config in self.configs:
                if transform is not None:
                    config = transform(config)
                timer.restart()
                run = drive_point(point_id, config, self.chunk, timer,
                                  spans, arm)
                self.check.point(point_id, run.report, run.cycles,
                                 run.drained)
                runs.append(run)
        self.last = runs

    def setup(self, timer: PassTimer, spans: Any) -> None:
        self.one_pass(timer, spans)

    @property
    def cycles(self) -> int:
        return sum(run.cycles for run in self.last)

    @property
    def flits(self) -> int:
        return sum(run.report["flits_ejected"] for run in self.last)

    @property
    def sim(self) -> Dict[str, float]:
        return sim_means([run.report for run in self.last])


def sim_means(reports: List[Dict[str, Any]]) -> Dict[str, float]:
    """The simulated-time figures of a pass, under their per-layer names."""
    count = len(reports)
    return {f"sim.{key}": sum(r[key] for r in reports) / count
            for key in ("latency_mean", "latency_p99", "throughput")}


def engine_points(name: str, seed: int, scale: str) -> List[Tuple[str, SimConfig]]:
    """The workload's points.  Point *i* simulates under ``seed * 100 + i``:
    one shared seed would give cr and dor the same arrivals, and the
    pass's cost would then swing twice as far from one ``--seed`` to the
    next (the cost follows the number of messages the seed happens to
    generate)."""
    phases = SCALES[scale]
    if name == "lowload_fast":
        points = [
            (f"{routing}/load={load}",
             SimConfig(**E01, **phases["lowload"], routing=routing, load=load,
                       engine="fast"))
            for routing in ("cr", "dor") for load in (0.05, 0.1)
        ]
    elif name in ("saturated_ref", "saturated_fast"):
        engine = "fast" if name.endswith("fast") else "reference"
        points = [
            (f"{routing}/load=0.5",
             SimConfig(**E01, **phases["saturated"], routing=routing,
                       load=0.5, engine=engine))
            for routing in ("cr", "dor")
        ]
    elif name == "cascade_fcr":
        run = phases["cascade"]
        faults = dict(CASCADE_FAULTS, repair_cycles=run["measure"] * 2 // 5)
        points = [(
            "fcr/mmpp/load=0.3",
            SimConfig(radix=8, dims=2, message_length=16, **run,
                      routing="fcr", misrouting=True, cascade_faults=faults,
                      alerts=True, sample_interval=200, workload="mmpp",
                      load=0.3, engine="fast"),
        )]
    else:
        raise KeyError(name)
    return [(point_id, config.with_(seed=seed * 100 + index))
            for index, (point_id, config) in enumerate(points)]


#: engine cycles per segment, sized so a segment is ~6-8 ms on the
#: builder's box (0.12 ms/cycle at low load, ~0.45 saturated, ~0.9 ref):
#: short enough to find quiet moments, long enough that the paired
#: calibration sample (~2 ms) is a quarter of the run, not half.
CHUNKS = {"lowload_fast": 64, "saturated_ref": 8, "saturated_fast": 16,
          "cascade_fcr": 16}


# ----------------------------------------------------------------------
# Campaign workloads: one tiny-point grid, three ways through the layer
# ----------------------------------------------------------------------

def grid_spec(seed: int, scale: str) -> CampaignSpec:
    """routing x load x replications on the smallest network there is.

    Points are as small as the engine allows (~11 ms) so the runner and
    store are as large a share of a pass as they can be.
    """
    return CampaignSpec.from_dict({
        "name": "perf-grid",
        "description": "benchmarks/perf campaign grid",
        "base": {"topology": "hypercube", "dims": 3, "message_length": 4,
                 "warmup": 0, "measure": 40, "drain": 3000, "engine": "fast"},
        "axes": {"routing": ["cr", "fcr", "dor"],
                 "load": [0.1, 0.2, 0.3, 0.4]},
        "replications": SCALES[scale]["grid_replications"],
        "seed": seed,
        "metrics": list(GRID_METRICS),
    })


class CampaignWorkload:
    """Shared by the three campaign workloads: the grid and its oracle.

    ``setup`` simulates every grid point directly (``run_simulation``):
    that warms the engine exactly as a campaign pass would, yields the
    cycle and flit counts of a pass, and gives each later row an expected
    value at *any* seed.
    """

    kind = "campaign"

    def __init__(self, name: str, seed: int, scale: str, workdir: str,
                 checker: Checker) -> None:
        self.name = name
        self.spec = grid_spec(seed, scale)
        self.grid = list(self.spec.points())
        self.workdir = workdir
        self.check = checker
        self.expected: Dict[str, Dict[str, Any]] = {}
        self.reports: List[Dict[str, Any]] = []
        self.cycles = 0
        #: what the journal says the last local pass's simulations took
        self.journal_wall = 0.0
        self._serial = 0
        self._settled: Optional[str] = None

    @property
    def points(self) -> int:
        return len(self.grid)

    @property
    def flits(self) -> int:
        return sum(report["flits_ejected"] for report in self.reports)

    @property
    def sim(self) -> Dict[str, float]:
        return sim_means(self.reports)

    def fresh_path(self) -> str:
        """A store path in a directory of its own (status/log files land
        beside the store, keyed by campaign name only)."""
        self._serial += 1
        directory = os.path.join(self.workdir, f"{self.name}-{self._serial}")
        os.mkdir(directory)
        return os.path.join(directory, "store.sqlite")

    def setup(self, timer: PassTimer, spans: Any) -> None:
        self.reports = []
        self.cycles = 0
        with spans.span("oracle", workload=self.name):
            for point in self.grid:
                timer.restart()
                result = run_simulation(point.config)
                timer.mark("oracle")
                timer.pause()
                self.check.point(point.point_id, result.report,
                                 result.cycles_run, result.drained)
                self.reports.append(result.report)
                self.cycles += result.cycles_run
                # what the store keeps of it, after its JSON round trip
                self.expected[point.point_id] = json.loads(json.dumps({
                    key: result.report[key] for key in GRID_METRICS
                    if key in result.report
                }))
        if self.name == "campaign_resume":
            self._populate(timer, spans)

    def _populate(self, timer: PassTimer, spans: Any) -> None:
        if self._settled is not None:
            remove_store(self._settled)
        self._settled = self.fresh_path()
        timer.restart()
        with spans.span("populate"):
            with CampaignStore(self._settled) as store:
                stats = run_campaign(self.spec, store, heartbeat=None)
        timer.mark("populate")
        timer.pause()
        if not stats.complete:
            self.check.fail(self.name, "populating run incomplete")

    def verify_rows(self, rows: List[Dict[str, Any]]) -> None:
        by_id = {row["point_id"]: row for row in rows}
        if len(by_id) != len(self.grid):
            self.check.fail(self.name, f"{len(by_id)} rows, want "
                                       f"{len(self.grid)}")
        for point in self.grid:
            self.check.row(point.point_id, by_id.get(point.point_id),
                           self.expected[point.point_id])

    # -- the three passes ----------------------------------------------

    def one_pass(self, timer: PassTimer, spans: Any, trace: bool = False) -> None:
        with spans.span("pass", workload=self.name):
            if self.name == "campaign_resume":
                timer.restart()
                self._pass_resume(timer, spans)
            else:
                path = self.fresh_path()
                timer.restart()
                try:
                    if self.name == "campaign_local":
                        self._pass_local(path, timer, spans, trace)
                    else:
                        self._pass_fabric(path, timer, spans)
                finally:
                    timer.pause()
                    remove_store(path)

    def _point_marker(self, timer: PassTimer) -> Callable[[Any], None]:
        def progress(status: Any) -> None:
            timer.mark("point")
        return progress

    def _pass_local(self, path: str, timer: PassTimer, spans: Any,
                    trace: bool) -> None:
        with spans.span("store.open"):
            store = CampaignStore(path)
        timer.mark("store.open")
        try:
            with spans.span("run_campaign", points=len(self.grid)):
                stats = run_campaign(self.spec, store, heartbeat=None,
                                     progress=self._point_marker(timer),
                                     trace=trace)
            timer.mark("settle")
            with spans.span("rows"):
                rows = store.rows(self.spec.name)
            timer.mark("rows")
            timer.pause()
            self.journal_wall = sum(row["wall_time"] for row in rows)
        finally:
            store.close()
        if not (stats.complete and stats.ran == len(self.grid)):
            self.check.fail(self.name, "run_campaign incomplete")
        self.verify_rows(rows)

    def _pass_fabric(self, path: str, timer: PassTimer, spans: Any) -> None:
        """The fabric path with its one worker in this process.

        Coordinator submit -> Worker lease/run/fenced-journal loop ->
        Coordinator settle: every store call the fabric makes, and one
        segment per point (``Worker(progress=...)``).  The two-subprocess
        ``run_fabric`` cannot be cut into repeatable segments (which
        worker takes which batch is a race), so it is measured in the
        traced run instead (``fabric.*``), where nothing is bounded.
        """
        with spans.span("store.open"):
            store = CampaignStore(path)
        timer.mark("store.open")
        try:
            with spans.span("submit"):
                coordinator = Coordinator(self.spec, store, interval=0.05)
            timer.mark("submit")
            with spans.span("worker", points=len(self.grid)):
                worker = Worker(self.spec.name, path, worker_id="worker-1",
                                progress=self._point_marker(timer))
                stats = worker.run()
            timer.mark("worker.exit")
            with spans.span("settle"):
                fabric = coordinator.run()
            timer.mark("settle")
            with spans.span("rows"):
                rows = store.rows(self.spec.name)
            timer.mark("rows")
            timer.pause()
        finally:
            store.close()
        if not (fabric.complete and stats.complete and not fabric.reclaims):
            self.check.fail(self.name, "fabric incomplete or reclaimed")
        self.verify_rows(rows)

    def _pass_resume(self, timer: PassTimer, spans: Any) -> None:
        with spans.span("store.open"):
            store = CampaignStore(self._settled)
        timer.mark("store.open")
        try:
            with spans.span("resume", points=len(self.grid)):
                stats = run_campaign(self.spec, store, heartbeat=None)
            timer.mark("resume")
            with spans.span("rows"):
                rows = store.rows(self.spec.name)
            timer.mark("rows")
            with spans.span("summary"):
                summary = store.summary(self.spec.name)
            timer.mark("summary")
            timer.pause()
        finally:
            store.close()
        if (stats.ran, stats.skipped) != (0, len(self.grid)):
            self.check.fail(self.name, "resume re-ran points")
        if summary["ok"] != len(self.grid) or summary["failed"]:
            self.check.fail(self.name, "summary disagrees with the grid")
        self.verify_rows(rows)


def remove_store(path: str) -> None:
    """Delete a store's directory: the file, WAL/SHM, status and logs."""
    shutil.rmtree(os.path.dirname(path))


# ----------------------------------------------------------------------

WORKLOADS = ("lowload_fast", "saturated_ref", "saturated_fast",
             "cascade_fcr", "campaign_local", "campaign_fabric",
             "campaign_resume")


def make_workload(name: str, seed: int, scale: str, workdir: str,
                  golden: Optional[Dict[str, Any]] = None) -> Any:
    """Build workload ``name``; ``golden`` overrides the committed file."""
    if golden is None:
        golden = load_golden()
    entry = None
    if seed == GOLDEN_SEED and golden.get("python") == python_tag():
        entry = golden.get(scale, {}).get(name)
    checker = Checker(entry)
    if name in CHUNKS:
        return EngineWorkload(name, engine_points(name, seed, scale),
                              CHUNKS[name], checker)
    if name in WORKLOADS:
        return CampaignWorkload(name, seed, scale, workdir, checker)
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def simulate_golden(name: str, scale: str) -> Dict[str, Any]:
    """Workload ``name``'s points at the golden seed, as golden.json rows.

    Through the unchunked ``run_simulation``, never the harness's own
    chunked drive: the golden file is the library's answer.
    """
    if name in CHUNKS:
        points = engine_points(name, GOLDEN_SEED, scale)
    else:
        points = [(point.point_id, point.config)
                  for point in grid_spec(GOLDEN_SEED, scale).points()]
    entry = {}
    for point_id, config in points:
        reset_uid_counter()
        result = run_simulation(config)
        entry[point_id] = {
            "digest": report_digest(result.report),
            "cycles_run": result.cycles_run,
            "flits_ejected": result.report.get("flits_ejected", 0),
        }
    return entry


def golden_pass(workload: Any, scale: str,
                golden: Optional[Dict[str, Any]] = None) -> None:
    """Pin the model at the golden seed whatever ``--seed`` is.

    The simulated figures differ from seed to seed, so nothing bounded
    can watch them; instead every run re-simulates the workload's points
    at the golden seed once and holds them to ``golden.json``.  A change
    that moves simulated time fails this on every run, not only on runs
    that happen to be given seed 42.
    """
    if golden is None:
        golden = load_golden()
    if golden.get("python") != python_tag():
        return
    want = golden.get(scale, {}).get(workload.name, {})
    got = simulate_golden(workload.name, scale)
    for point_id in sorted(set(want) | set(got)):
        workload.check.attempted += 1
        if want.get(point_id) != got.get(point_id):
            workload.check.fail(point_id, "golden-seed run differs from "
                                          "golden.json")


def regen_golden() -> Dict[str, Any]:
    out: Dict[str, Any] = {"python": python_tag(), "seed": GOLDEN_SEED}
    for scale in SCALES:
        out[scale] = {name: simulate_golden(name, scale)
                      for name in WORKLOADS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return out
