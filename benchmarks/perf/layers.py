"""The traced run: per-layer metrics, measured from the harness's side.

Layer names are the repo's modules.  A metric reads 0 on a workload
whose traced run does not measure it -- the layer is not exercised
there, which is the "predicted no change elsewhere" of the README's
layer list.  Three kinds of measurement, all on
:class:`~timing.PassTimer` so they are normalised like the end-to-end
figures:

* **label groups** -- the plain pass's segments summed by label
  (``build``, ``active``, ``drain``, ``report``, ``store.open``, ...);
* **variants** -- the same pass with one thing armed (harness spans,
  ``profile=True``, the other engine, an event sink, the sampler,
  alerts, the invariant checker, ``run_campaign(trace=True)``), run
  round-robin with the plain pass so every ratio is between neighbours
  in time; the :class:`~workloads.Checker` holds every variant to the
  plain pass's digest;
* **micro passes** -- direct calls into one layer (store, monitor,
  spec, sweep cache) on a scratch store, one call or one small batch
  per segment.

Only the two-subprocess ``run_fabric`` is timed whole (``fabric.*``).
"""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.campaign import CampaignMonitor, CampaignStore, run_fabric, write_status
from repro.campaign.runner import point_candidates, submit_campaign
from repro.obs import attach
from repro.obs.metrics import engine_metrics
from repro.obs.profile import PHASES
from repro.obs.sinks import ListSink
from repro.obs.trace import Tracer
from repro.sim.parallel import SweepCache, config_cache_key
from repro.sim.sweep import load_sweep

from timing import Clock, NoSpans, PassTimer, Spans
from workloads import CampaignWorkload, EngineWorkload, remove_store

Variant = Tuple[str, Callable[[PassTimer], None]]


def round_robin(clock: Clock, variants: List[Variant], seconds: float,
                rounds: int = 2) -> Dict[str, PassTimer]:
    """Run every variant in turn until ``seconds`` have gone by."""
    timers = {name: PassTimer(clock) for name, _ in variants}
    deadline = time.perf_counter() + seconds
    done = 0
    while done < rounds or time.perf_counter() < deadline:
        for name, one_pass in variants:
            timer = timers[name]
            timer.begin()
            one_pass(timer)
            timer.end()
        done += 1
    return timers


def micro(clock: Clock, one_pass: Callable[[PassTimer], None],
          passes: int = 5) -> Dict[str, float]:
    """Label -> normalised seconds over ``passes`` micro passes."""
    timer = PassTimer(clock)
    for _ in range(passes):
        timer.begin()
        one_pass(timer)
        timer.end()
    return timer.best()["by_label_s"]


def ratio(timers: Dict[str, PassTimer], name: str, base: str = "plain") -> float:
    return timers[name].best()["wall_s"] / timers[base].best()["wall_s"]


def common(out: Dict[str, float], workload: Any,
           timers: Dict[str, PassTimer]) -> Dict[str, Any]:
    best = timers["plain"].best()
    out["host.speed"] = best["speed"]
    out["host.raw_wall_s"] = best["raw_wall_s"]
    out["pass.count"] = best["passes"]
    out["pass.segments"] = best["segments"]
    out["points_per_s"] = workload.points / best["wall_s"]
    out["cycles_per_s"] = workload.cycles / best["wall_s"]
    out["trace.overhead"] = ratio(timers, "spans") - 1.0
    out.update(workload.sim)
    return best


# ----------------------------------------------------------------------
# network.engine / network.fastengine / core / faults / obs
# ----------------------------------------------------------------------

def engine_layers(out: Dict[str, float], workload: EngineWorkload,
                  clock: Clock, spans: Spans, seconds: float,
                  workdir: str) -> PassTimer:
    none = NoSpans()
    other = "reference" if workload.name != "saturated_ref" else "fast"
    profiles: List[Dict[str, int]] = []

    def profiled(timer: PassTimer) -> None:
        workload.one_pass(timer, none, lambda c: c.with_(profile=True))
        totals: Dict[str, int] = dict.fromkeys(PHASES + ("gap",), 0)
        for run in workload.last:
            summary = run.report["profile"]
            for phase in PHASES:
                totals[phase] += summary["phases"][phase]["wall_ns"]
            totals["gap"] += (summary["step_wall_ns"]
                              - summary["phase_wall_ns"])
        profiles.append(totals)

    def with_config(**fields: Any) -> Callable[[PassTimer], None]:
        return lambda timer: workload.one_pass(
            timer, none, lambda c: c.with_(**fields))

    variants: List[Variant] = [
        ("plain", lambda timer: workload.one_pass(timer, none)),
        ("spans", lambda timer: workload.one_pass(timer, spans)),
        ("profile", profiled),
        ("other", with_config(engine=other)),
    ]
    if workload.name == "saturated_fast":
        variants += [
            ("events", lambda timer: workload.one_pass(
                timer, none, arm=lambda e: attach(e, ListSink()))),
            ("sampler", with_config(sample_interval=200)),
            ("alerts", with_config(alerts=True)),
            ("verify", with_config(verify=True)),
        ]
    # plain runs last in each round so workload.last ends on its engines
    variants.append(variants.pop(0))
    timers = round_robin(clock, variants, seconds)
    best = common(out, workload, timers)

    runs = workload.last
    reports = [run.report for run in runs]
    cycles = sum(run.cycles for run in runs)
    active = sum(run.active_cycles for run in runs)
    label = best["by_label_s"]

    def total(key: str) -> float:
        return sum(report.get(key, 0) for report in reports)

    out["config.build_us"] = label["build"] / len(runs) * 1e6
    out["stats.report_us"] = label["report"] / len(runs) * 1e6
    out["engine.active_ns_per_cycle"] = label["active"] / active * 1e9
    out["engine.drain_ns_per_cycle"] = (
        label["drain"] / max(cycles - active, 1) * 1e9)
    out["engine.ns_per_flit"] = best["wall_s"] / total("flits_ejected") * 1e9
    out["engine.cycles_skipped"] = sum(
        getattr(run.engine, "cycles_skipped", 0) for run in runs)
    other_over_plain = ratio(timers, "other")
    out["engine.ref_over_fast"] = (
        other_over_plain if other == "reference" else 1.0 / other_over_plain)

    speed = timers["profile"].best()["speed"]
    for phase in PHASES + ("gap",):
        out[f"phase.{phase}.ns_per_cycle"] = (
            min(row[phase] for row in profiles) * speed / cycles)
    out["profile.overhead"] = ratio(timers, "profile") - 1.0

    for key in ("kills", "retransmissions", "injection_stall_cycles",
                "kill_segments_flushed"):
        out[f"core.{key}"] = total(key)
    out["core.pad_overhead"] = total("pad_overhead") / len(reports)
    out["core.useful_flit_ratio"] = (
        total("payload_flits_delivered") / total("flits_injected"))
    out["faults.cascade_events"] = total("cascade_events")
    out["faults.cascade_channel_faults"] = total("cascade_channel_faults")
    out["workload.messages_created"] = total("messages_created")

    configs = [config for _, config in workload.configs]

    def hashing(timer: PassTimer) -> None:
        timer.restart()
        for _ in range(10):
            for config in configs:
                config_cache_key(config)
        timer.mark("hash")

    out["config.hash_us"] = (
        micro(clock, hashing)["hash"] / (10 * len(configs)) * 1e6)

    if workload.name == "saturated_fast":
        for name in ("events", "sampler", "alerts"):
            out[f"obs.{name}_overhead"] = ratio(timers, name) - 1.0
        out["verify.overhead"] = ratio(timers, "verify") - 1.0
        engine = runs[0].engine

        def prometheus(timer: PassTimer) -> None:
            timer.restart()
            engine_metrics(engine).prometheus_text()
            timer.mark("text")

        out["obs.prometheus_text_us"] = micro(clock, prometheus)["text"] * 1e6
    if workload.name == "lowload_fast":
        sweep_layers(out, workload, clock, workdir)
    return timers["plain"]


def sweep_layers(out: Dict[str, float], workload: EngineWorkload,
                 clock: Clock, workdir: str) -> None:
    """sim.sweep / sim.parallel: what a sweep adds around run_simulation.

    Measured where there is nothing to subtract: ``load_sweep`` over
    points that are all in the cache costs its own plumbing plus one
    ``SweepCache.get`` a point.  (``load_sweep`` minus the same points
    through ``run_simulation`` is a difference of two ~0.4 s walls and
    came out at -3 and -12 ms a point.)
    """
    bases = [config for _, config in workload.configs][::2]  # one per scheme
    loads = (0.05, 0.1)
    cache = SweepCache(os.path.join(workdir, "sweep-cache"))
    for base in bases:
        load_sweep(base, loads, workers=1, cache=cache)  # fills the cache
    report = workload.last[0].report
    keys = [f"{index:064x}" for index in range(16)]

    def sweeping(timer: PassTimer) -> None:
        timer.restart()
        for _ in range(8):
            for base in bases:
                load_sweep(base, loads, workers=1, cache=cache)
        timer.mark("sweep")
        for key in keys:
            cache.put(key, report)
        timer.mark("put")
        for key in keys:
            cache.get(key)
        timer.mark("get")

    label = micro(clock, sweeping)
    out["sweep.overhead_us_per_point"] = (
        label["sweep"] / (8 * len(bases) * len(loads)) * 1e6)
    out["sweepcache.put_us"] = label["put"] / len(keys) * 1e6
    out["sweepcache.get_us"] = label["get"] / len(keys) * 1e6


# ----------------------------------------------------------------------
# campaign.spec / store / runner / fabric / monitor
# ----------------------------------------------------------------------

def campaign_layers(out: Dict[str, float], workload: CampaignWorkload,
                    clock: Clock, spans: Spans, seconds: float) -> PassTimer:
    none = NoSpans()
    journal: List[float] = []

    def plain(timer: PassTimer) -> None:
        workload.one_pass(timer, none)
        journal.append(workload.journal_wall)

    variants: List[Variant] = [
        ("spans", lambda timer: workload.one_pass(timer, spans)),
    ]
    if workload.name == "campaign_local":
        variants.append(
            ("trace", lambda timer: workload.one_pass(timer, none, trace=True)))
    variants.append(("plain", plain))
    timers = round_robin(clock, variants, seconds)
    best = common(out, workload, timers)
    points = workload.points
    label = best["by_label_s"]

    if workload.name == "campaign_local":
        out["obs.trace_overhead"] = ratio(timers, "trace") - 1.0
        # per pass: the pass's raw wall minus what the journal says the
        # simulations took in that same pass (same machine conditions)
        samples = timers["plain"].samples
        over = sorted(
            sum(rows[p][0] for rows in samples) - journaled
            for p, journaled in enumerate(journal))
        overhead = over[len(over) // 2] * best["speed"]
        out["runner.overhead_us_per_point"] = overhead / points * 1e6
        out["runner.overhead_share"] = overhead / best["wall_s"]
        monitor_layers(out, workload, clock)
    if workload.name == "campaign_resume":
        out["runner.resume_us_per_point"] = label["resume"] / points * 1e6
    if workload.name == "campaign_fabric":
        fabric_layers(out, workload)
    store_layers(out, workload, clock)
    return timers["plain"]


def store_layers(out: Dict[str, float], workload: CampaignWorkload,
                 clock: Clock) -> None:
    """Every store call the runner and the fabric make, on a scratch store."""
    spec = workload.spec
    name = spec.name
    grid = workload.grid
    batch = grid[:16]
    candidates = point_candidates(grid)
    series = [{"index": i, "start": i * 200, "end": (i + 1) * 200,
               "throughput": 0.25, "kills": i} for i in range(5)]
    tracer = Tracer(worker_id="perf")
    grown: List[int] = []

    def disk_bytes(path: str) -> int:
        directory = os.path.dirname(path)
        return sum(os.path.getsize(os.path.join(directory, entry))
                   for entry in os.listdir(directory))

    def one_pass(timer: PassTimer) -> None:
        path = workload.fresh_path()
        timer.restart()
        store = CampaignStore(path)
        timer.mark("open")
        try:
            store.register(spec)
            timer.mark("register")
            list(spec.points())
            timer.mark("expand")
            for point in batch:
                point.config.build()
            timer.mark("build")
            for point in grid:
                config_cache_key(point.config)
            timer.mark("hash")
            submit_campaign(spec, store)
            timer.mark("submit")
            timer.pause()
            before = disk_bytes(path)
            timer.restart()
            leases = store.acquire_leases(name, "perf", candidates,
                                          limit=len(batch), ttl=15.0)
            timer.mark("acquire")
            held = [lease.point_id for lease in leases]
            for _ in range(8):
                store.renew_leases(name, "perf", held, ttl=15.0)
            timer.mark("renew")
            for _ in range(8):
                store.worker_heartbeat(name, "perf", pid=os.getpid(),
                                       leases=len(held))
            timer.mark("heartbeat")
            store.release_lease(name, leases[-1].point_id, "perf",
                                leases[-1].attempt)
            timer.mark("release")
            for point in batch:
                store.record_success(name, point,
                                     workload.expected[point.point_id], 0.01)
            timer.mark("record_success")
            for point in batch:
                store.record_timeseries(name, point, series)
            timer.mark("record_timeseries")
            for point in batch:
                span = tracer.end_span(tracer.start_span(
                    f"run {point.point_id}", kind="run",
                    point_id=point.point_id))
                store.record_spans(name, [span.to_dict()])
            timer.mark("record_spans")
            for _ in range(8):
                store.completed(name)
            timer.mark("completed")
            for _ in range(8):
                store.rows(name)
            timer.mark("rows")
            timer.pause()
            grown.append(disk_bytes(path) - before)
        finally:
            timer.pause()
            store.close()
            remove_store(path)

    label = micro(clock, one_pass)
    n = len(batch)
    out["store.open_ms"] = label["open"] * 1e3
    out["store.register_ms"] = label["register"] * 1e3
    out["spec.expand_us_per_point"] = label["expand"] / len(grid) * 1e6
    out["config.build_us"] = label["build"] / n * 1e6
    out["config.hash_us"] = label["hash"] / len(grid) * 1e6
    out["runner.submit_ms"] = label["submit"] * 1e3
    out["store.acquire_leases_us"] = label["acquire"] * 1e6
    out["store.renew_leases_us"] = label["renew"] / 8 * 1e6
    out["store.worker_heartbeat_us"] = label["heartbeat"] / 8 * 1e6
    out["store.release_lease_us"] = label["release"] * 1e6
    for key in ("record_success", "record_timeseries", "record_spans"):
        out[f"store.{key}_us"] = label[key] / n * 1e6
    out["store.completed_us_per_point"] = label["completed"] / (8 * n) * 1e6
    out["store.rows_us_per_point"] = label["rows"] / (8 * n) * 1e6
    # file + WAL growth while the batch was leased and journaled
    out["store.db_bytes_per_point"] = min(grown) / n


def monitor_layers(out: Dict[str, float], workload: CampaignWorkload,
                   clock: Clock) -> None:
    path = os.path.join(workload.workdir, "monitor.status.json")
    monitor = CampaignMonitor(workload.spec.name, workload.points, None)
    for point, report in zip(workload.grid, workload.reports):
        monitor.on_point(point, "ok", 0.01, report)
    status = monitor.snapshot()

    def one_pass(timer: PassTimer) -> None:
        timer.restart()
        for _ in range(16):
            monitor.snapshot()
        timer.mark("snapshot")
        for _ in range(16):
            write_status(path, status)
        timer.mark("write")

    label = micro(clock, one_pass)
    out["monitor.snapshot_us"] = label["snapshot"] / 16 * 1e6
    out["monitor.write_status_us"] = label["write"] / 16 * 1e6


def fabric_layers(out: Dict[str, float], workload: CampaignWorkload) -> None:
    """The real thing: ``run_fabric`` with two worker subprocesses, whole.

    Raw wall (nothing to pair a calibration with across processes); the
    better of two runs.  A run that is incomplete, reclaims a lease or
    journals a wrong row is a failed operation like any other.
    """
    spec = workload.spec
    points = workload.points
    runs = []
    for _ in range(2):
        path = workload.fresh_path()
        try:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = time.process_time()
            called = time.time()
            stats = run_fabric(spec, path, workers=2, interval=0.05)
            returned = time.time()
            cpu = time.process_time() - cpu
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            with CampaignStore(path) as store:
                rows = store.rows(spec.name)
                workers = store.workers(spec.name)
        finally:
            remove_store(path)
        if not stats.complete or stats.reclaims:
            workload.check.fail(workload.name, "run_fabric incomplete/reclaimed")
        workload.verify_rows(rows)
        cpu += (after.ru_utime + after.ru_stime
                - before.ru_utime - before.ru_stime)
        runs.append({
            "elapsed": returned - called,
            "spawn": min(w["started_at"] for w in workers) - called,
            "tail": returned - max(row["created_at"] for row in rows),
            "busy": sum(row["wall_time"] for row in rows),
            "leases": sum(row["attempts"] for row in rows),
            "reclaims": stats.reclaims,
            "cpu": cpu,
        })
    run = min(runs, key=lambda r: r["elapsed"])
    out["fabric.spawn_to_first_lease_ms"] = run["spawn"] * 1e3
    out["fabric.tail_idle_ms"] = run["tail"] * 1e3
    out["fabric.parallel_efficiency"] = run["busy"] / (2 * run["elapsed"])
    out["fabric.leases"] = run["leases"]
    out["fabric.reclaims"] = run["reclaims"]
    out["fabric.points_per_s"] = points / run["elapsed"]
    out["fabric.cpu_us_per_flit"] = run["cpu"] * 1e6 / workload.flits


def traced_run(names: List[str], workload: Any, clock: Clock, spans: Spans,
               seconds: float, workdir: str) -> Tuple[Dict[str, float], PassTimer]:
    """Every per-layer metric in ``names`` (0 where this workload has
    none), and the plain variant's timer."""
    out: Dict[str, float] = dict.fromkeys(names, 0.0)
    if workload.kind == "engine":
        plain = engine_layers(out, workload, clock, spans, seconds, workdir)
    else:
        plain = campaign_layers(out, workload, clock, spans, seconds)
    unknown = sorted(set(out) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return out, plain
