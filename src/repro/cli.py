"""Command-line interface: ``cr-sim``.

Examples::

    cr-sim run --routing cr --radix 8 --load 0.3
    cr-sim experiment e01
    cr-sim experiment e07 --scale paper
    cr-sim list
    cr-sim campaign run fault-matrix --workers 0
    cr-sim campaign report fault-matrix fault-matrix-v2
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from .experiments import PAPER, QUICK, REGISTRY
from .sim.config import SCHEMES, SimConfig
from .sim.parallel import DEFAULT_CACHE_DIR, PointStatus, SweepCache
from .sim.simulator import run_simulation
from .stats.report import format_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cr-sim",
        description=(
            "Compressionless Routing simulator "
            "(Kim, Liu & Chien, ISCA 1994 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine", default=None,
            choices=["reference", "fast"],
            help="simulation engine: the fast engine with event "
                 "skipping or the flit-identical reference cycle loop "
                 "it is checked against (default: SimConfig's, or the "
                 "preset's; see docs/SIMULATOR.md)",
        )

    def add_serve(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--serve", default=None, metavar="[HOST:]PORT",
            help="serve live telemetry over HTTP while the run "
                 "executes: /metrics (Prometheus), /health, /status "
                 "(port 0 = ephemeral; see docs/OBSERVABILITY.md)",
        )

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument(
        "--routing", default="cr", choices=sorted(SCHEMES)
    )
    run_p.add_argument(
        "--topology", default="torus", choices=["torus", "mesh", "hypercube"]
    )
    run_p.add_argument("--radix", type=int, default=8)
    run_p.add_argument("--dims", type=int, default=2)
    run_p.add_argument("--num-vcs", type=int, default=None)
    run_p.add_argument("--buffer-depth", type=int, default=2)
    run_p.add_argument("--num-inject", type=int, default=1)
    run_p.add_argument("--num-sink", type=int, default=1)
    run_p.add_argument("--message-length", type=int, default=16)
    run_p.add_argument("--pattern", default="uniform")
    run_p.add_argument("--load", type=float, default=0.3)
    run_p.add_argument(
        "--workload", default=None, metavar="SPEC",
        help="production workload spec: bernoulli | geometric | poisson "
             "| mmpp | pareto | incast | client-server | phased | "
             "trace:<path>, with optional k=v args after ':' "
             "(see docs/WORKLOADS.md)",
    )
    run_p.add_argument("--fault-rate", type=float, default=0.0)
    run_p.add_argument("--permanent-faults", type=int, default=0)
    run_p.add_argument(
        "--cascade-faults", default=None, metavar="SPEC",
        help="load-dependent cascading faults: 'cascade' for defaults "
             "or 'k=v,...' LoadDependentFaults kwargs "
             "(see docs/WORKLOADS.md)",
    )
    run_p.add_argument("--warmup", type=int, default=500)
    run_p.add_argument("--measure", type=int, default=2000)
    run_p.add_argument("--drain", type=int, default=4000)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument(
        "--verify", action="store_true",
        help="arm the runtime protocol-invariant checker "
             "(see docs/VERIFICATION.md)",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="arm the engine self-profiler and print the per-phase "
             "hotspot table (see docs/OBSERVABILITY.md)",
    )
    run_p.add_argument(
        "--alerts", nargs="?", const=True, default=None,
        metavar="RULES.json",
        help="arm the alert rules engine: built-in rules, or a JSON "
             "rules file (see docs/OBSERVABILITY.md)",
    )
    run_p.add_argument(
        "--sample-interval", type=int, default=None, metavar="CYCLES",
        help="collect time-series metrics every CYCLES cycles (alerts "
             "and --serve evaluate on these boundaries; default 200 "
             "when either is armed)",
    )
    add_serve(run_p)
    add_engine(run_p)

    exp_p = sub.add_parser("experiment", help="reproduce a table/figure")
    exp_p.add_argument("id", choices=sorted(REGISTRY))
    exp_p.add_argument(
        "--scale", default="quick", choices=["quick", "paper"]
    )
    exp_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep process-pool width (0 = one per CPU; "
             "default: the scale's own setting)",
    )
    exp_p.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and don't write the on-disk sweep result cache",
    )
    exp_p.add_argument(
        "--verify", action="store_true",
        help="arm the invariant checker on every run of the experiment",
    )

    sweep_p = sub.add_parser("sweep", help="latency/throughput load sweep")
    sweep_p.add_argument(
        "--routing", default="cr", choices=sorted(SCHEMES)
    )
    sweep_p.add_argument("--radix", type=int, default=8)
    sweep_p.add_argument("--dims", type=int, default=2)
    sweep_p.add_argument("--num-vcs", type=int, default=None)
    sweep_p.add_argument("--message-length", type=int, default=16)
    sweep_p.add_argument("--pattern", default="uniform")
    sweep_p.add_argument(
        "--workload", default=None, metavar="SPEC",
        help="production workload spec (see cr-sim run --workload)",
    )
    sweep_p.add_argument(
        "--loads",
        default="0.1,0.2,0.3,0.4",
        help="comma-separated load fractions",
    )
    sweep_p.add_argument("--warmup", type=int, default=500)
    sweep_p.add_argument("--measure", type=int, default=2000)
    sweep_p.add_argument("--drain", type=int, default=4000)
    sweep_p.add_argument("--seed", type=int, default=42)
    sweep_p.add_argument("--out", default=None, help="CSV output path")
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run sweep points on a process pool of this size "
             "(0 = one worker per CPU; default 1 = serial)",
    )
    sweep_p.add_argument(
        "--no-cache",
        action="store_true",
        help="don't read or write the on-disk sweep result cache",
    )
    sweep_p.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="sweep result cache location (default: %(default)s)",
    )
    add_engine(sweep_p)

    trace_p = sub.add_parser(
        "trace",
        help="run a traced simulation: heat maps, event logs, Perfetto",
    )
    trace_p.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment preset (e.g. e08, fault-matrix; see "
             "repro.obs.trace_experiments); runs it with JSONL + "
             "Perfetto artifacts under results/traces/.  Omit to "
             "configure the run with the flags below.",
    )
    trace_p.add_argument("--routing", default="cr", choices=sorted(SCHEMES))
    trace_p.add_argument("--radix", type=int, default=8)
    trace_p.add_argument("--dims", type=int, default=2)
    trace_p.add_argument("--pattern", default="transpose")
    trace_p.add_argument("--load", type=float, default=0.3)
    trace_p.add_argument(
        "--workload", default=None, metavar="SPEC",
        help="production workload spec (see cr-sim run --workload)",
    )
    trace_p.add_argument("--cycles", type=int, default=1500)
    trace_p.add_argument("--message-length", type=int, default=16)
    trace_p.add_argument("--seed", type=int, default=42)
    trace_p.add_argument(
        "--svg", default=None, help="write a heat-map SVG to this path"
    )
    trace_p.add_argument(
        "--jsonl", nargs="?", const="auto", default=None, metavar="PATH",
        help="record every event as JSON lines (default path: "
             "results/traces/<name>.jsonl)",
    )
    trace_p.add_argument(
        "--perfetto", nargs="?", const="auto", default=None, metavar="PATH",
        help="write a Chrome trace-event file loadable in "
             "ui.perfetto.dev (default path: "
             "results/traces/<name>.perfetto.json)",
    )
    trace_p.add_argument(
        "--events", type=int, default=0, metavar="N",
        help="print the last N events of the run",
    )
    trace_p.add_argument(
        "--sample-interval", type=int, default=None, metavar="CYCLES",
        help="collect time-series metrics every CYCLES cycles",
    )
    trace_p.add_argument(
        "--series-csv", default=None, metavar="PATH",
        help="write the sampled time series as CSV (needs "
             "--sample-interval)",
    )
    trace_p.add_argument(
        "--series-svg", default=None, metavar="PATH",
        help="write sparklines of the sampled series (needs "
             "--sample-interval)",
    )
    trace_p.add_argument(
        "--profile", nargs="?", const=100, type=int, default=None,
        metavar="CYCLES",
        help="arm the engine self-profiler; snapshots every CYCLES "
             "cycles (default 100) merge a per-phase wall-time counter "
             "track into the Perfetto export",
    )
    trace_p.add_argument(
        "--hotspot", nargs="?", const="auto", default=None,
        metavar="PATH",
        help="write the profiler hotspot report as markdown (needs "
             "--profile; default path: results/traces/<name>.hotspot.md)",
    )
    trace_p.add_argument(
        "--prom", nargs="?", const="auto", default=None, metavar="PATH",
        help="write the run's metrics registry in Prometheus text "
             "format (default path: results/traces/<name>.prom.txt)",
    )
    add_serve(trace_p)
    add_engine(trace_p)

    sub.add_parser("list", help="list available experiments")

    camp_p = sub.add_parser(
        "campaign",
        help="orchestrate whole evaluation campaigns (resumable grids)",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)

    def add_db(p: argparse.ArgumentParser) -> None:
        from .campaign import DEFAULT_DB_PATH

        p.add_argument(
            "--db", default=DEFAULT_DB_PATH,
            help="campaign results database (default: %(default)s)",
        )

    crun_p = camp_sub.add_parser(
        "run", help="run (or resume) a campaign; completed points skip"
    )
    crun_p.add_argument(
        "name",
        help="built-in campaign name or path to a JSON spec file",
    )
    add_db(crun_p)
    crun_p.add_argument(
        "--scale", default="quick", choices=["quick", "paper"],
        help="network/run sizing for built-in campaigns",
    )
    crun_p.add_argument(
        "--quick", action="store_true",
        help="shorthand for --scale quick",
    )
    crun_p.add_argument(
        "--workload", default=None, metavar="SPEC",
        help="override every grid's workload with this spec "
             "(see cr-sim run --workload)",
    )
    crun_p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width (0 = one per CPU; default 1 = serial)",
    )
    crun_p.add_argument(
        "--workers-fabric", type=int, default=0, metavar="N",
        help="shard the campaign across N lease-based worker "
             "processes (the distributed fabric; survives worker "
             "loss, see docs/SIMULATOR.md). 0 = off (default)",
    )
    crun_p.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="fabric lease time-to-live before a dead worker's "
             "points are reclaimed (default: 15)",
    )
    crun_p.add_argument(
        "--lease-batch", type=int, default=None, metavar="POINTS",
        help="points per fabric lease batch (default: 2)",
    )
    crun_p.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per failing point before recording failure",
    )
    crun_p.add_argument(
        "--verify", action="store_true",
        help="arm the invariant checker on every campaign point "
             "(changes point hashes: unverified points re-run)",
    )
    crun_p.add_argument(
        "--trace", action="store_true",
        help="arm distributed tracing + structured logging: spans "
             "journal into the store for `campaign timeline`, logs "
             "for `campaign logs` (see docs/OBSERVABILITY.md)",
    )
    add_serve(crun_p)

    cworker_p = camp_sub.add_parser(
        "worker",
        help="join a registered campaign as one fabric worker "
             "(run the coordinator first; see docs/SIMULATOR.md)",
    )
    cworker_p.add_argument(
        "name", help="campaign name registered in the store"
    )
    add_db(cworker_p)
    cworker_p.add_argument(
        "--worker-id", default=None,
        help="stable worker identity (default: <hostname>-<pid>)",
    )
    cworker_p.add_argument(
        "--batch", type=int, default=None, metavar="POINTS",
        help="points leased per batch (default: 2)",
    )
    cworker_p.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="lease time-to-live; heartbeat renews at ttl/3 "
             "(default: 15)",
    )
    cworker_p.add_argument(
        "--poll", type=float, default=None, metavar="SECONDS",
        help="idle poll period while other workers hold all pending "
             "points (default: 0.25)",
    )
    cworker_p.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="attempts across all workers before a failing point is "
             "terminal (default: 3)",
    )
    cworker_p.add_argument(
        "--verify", action="store_true",
        help="arm the invariant checker on every point (must match "
             "the coordinator's --verify)",
    )
    cworker_p.add_argument(
        "--trace", action="store_true",
        help="arm tracing + structured logging (auto-armed when the "
             "coordinator spawned this worker with CR_TRACE=1; the "
             "worker joins the coordinator's trace via CR_TRACEPARENT "
             "or the store's open root span)",
    )

    cstat_p = camp_sub.add_parser(
        "status", help="stored campaigns, or one campaign in detail"
    )
    cstat_p.add_argument("name", nargs="?", default=None)
    add_db(cstat_p)

    cwatch_p = camp_sub.add_parser(
        "watch",
        help="live view of a running campaign from its status.json "
             "heartbeat (never touches the database)",
    )
    cwatch_p.add_argument("name", help="campaign name")
    add_db(cwatch_p)
    cwatch_p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: %(default)s)",
    )
    cwatch_p.add_argument(
        "--once", action="store_true",
        help="print the current status once and exit",
    )
    cwatch_p.add_argument(
        "--status-file", default=None, metavar="PATH",
        help="heartbeat file (default: <db dir>/<name>.status.json)",
    )
    cwatch_p.add_argument(
        "--svg", default=None, metavar="PATH",
        help="also write the heartbeat's rolling series as SVG "
             "sparklines",
    )
    cwatch_p.add_argument(
        "--alerts", action="store_true",
        help="show only the alerts pane (firing alerts render even "
             "from a stale heartbeat, marked as last-known)",
    )
    cwatch_p.add_argument(
        "--stale-after", type=float, default=None, metavar="SECONDS",
        help="heartbeat age past which the STALE banner shows "
             "(default: 15; raise for slow points or remote "
             "filesystems)",
    )

    ctl_p = camp_sub.add_parser(
        "timeline",
        help="merge a traced campaign's spans (all workers + the "
             "coordinator) into one Perfetto timeline",
    )
    ctl_p.add_argument("name", help="campaign name in the store")
    add_db(ctl_p)
    ctl_p.add_argument(
        "--perfetto", nargs="?", const="", default=None, metavar="PATH",
        help="write the merged Chrome-trace/Perfetto JSON (default "
             "path: <db dir>/<name>.timeline.perfetto.json); without "
             "this flag only the span summary prints",
    )

    clog_p = camp_sub.add_parser(
        "logs",
        help="merged structured logs of a traced campaign "
             "(coordinator + every worker, by timestamp)",
    )
    clog_p.add_argument("name", help="campaign name in the store")
    add_db(clog_p)
    clog_p.add_argument(
        "--worker", default=None, metavar="ID",
        help="only records from this worker (e.g. worker-1, "
             "coordinator)",
    )
    clog_p.add_argument(
        "--level", default=None, choices=["debug", "info", "warning",
                                          "error"],
        help="minimum severity to show",
    )
    clog_p.add_argument(
        "--trace", default=None, metavar="TRACE_ID",
        help="only records from this trace (full id or >=4-char "
             "hex prefix)",
    )
    clog_p.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="only the last N matching records",
    )
    clog_p.add_argument(
        "--json", action="store_true",
        help="print raw JSONL records instead of formatted lines",
    )

    crep_p = camp_sub.add_parser(
        "report", help="markdown regression report: baseline vs candidate"
    )
    crep_p.add_argument("baseline", help="baseline campaign name")
    crep_p.add_argument("candidate", help="candidate campaign name")
    add_db(crep_p)
    crep_p.add_argument(
        "--metrics", default="latency_mean,throughput",
        help="comma-separated report metrics (default: %(default)s)",
    )
    crep_p.add_argument(
        "--md", default=None, help="also write the markdown to this path"
    )
    crep_p.add_argument(
        "--csv", default=None, help="also write comparison rows as CSV"
    )

    clist_p = camp_sub.add_parser(
        "list", help="built-in campaigns and their grid sizes"
    )
    clist_p.add_argument(
        "--scale", default="quick", choices=["quick", "paper"]
    )

    verify_p = sub.add_parser(
        "verify",
        help="replay experiment presets under full invariant checking",
    )
    verify_p.add_argument(
        "experiment", nargs="?", default=None,
        help="preset to replay (e.g. e01; see --list); omit to replay "
             "every preset",
    )
    verify_p.add_argument(
        "--list", action="store_true",
        help="list the known presets and seeded mutations, then exit",
    )
    verify_p.add_argument("--seed", type=int, default=42)
    verify_p.add_argument(
        "--check-interval", type=int, default=16, metavar="CYCLES",
        help="cycles between whole-network sweeps (default: %(default)s)",
    )
    verify_p.add_argument(
        "--progress-limit", type=int, default=None, metavar="CYCLES",
        help="liveness threshold (default: half the engine watchdog)",
    )
    verify_p.add_argument(
        "--mutation", default=None, metavar="NAME",
        help="inject this seeded protocol bug; the replay then MUST "
             "trip a checker (differential oracle)",
    )
    verify_p.add_argument(
        "--quick", action="store_true",
        help="shrink the replayed runs (smoke-test sizing)",
    )
    return parser


#: the flags ``SimConfig.build()`` range-checks the values of.
_CHECKED_FLAGS = (
    "topology", "radix", "dims", "routing", "num_vcs", "buffer_depth",
    "num_inject", "num_sink", "message_length", "pattern", "load",
    "workload", "fault_rate", "permanent_faults", "cascade_faults",
    "sample_interval",
)


def _engine_override(args: argparse.Namespace) -> Dict[str, str]:
    """``--engine`` as ``SimConfig`` keywords: absent, it overrides
    nothing; given, it always does."""
    return {} if args.engine is None else {"engine": args.engine}


def _config_usage_error(args: argparse.Namespace, prog: str):
    """Build the configuration the command names (the flags it has,
    defaults for the rest) eagerly: misuse exits 2."""
    named = {
        name: getattr(args, name)
        for name in _CHECKED_FLAGS
        if hasattr(args, name)
    }
    try:
        SimConfig(**named).build()
    except (TypeError, ValueError, OSError) as exc:
        print(f"cr-sim {prog}: {exc}", file=sys.stderr)
        return 2
    return None


def _start_server(spec: Optional[str]):
    """Start a telemetry server for --serve and announce its URL."""
    if spec is None:
        return None
    from .obs.server import make_telemetry_server

    try:
        server = make_telemetry_server(spec)
    except (ValueError, OSError) as exc:
        print(f"cr-sim: {exc}", file=sys.stderr)
        raise SystemExit(2)
    print(
        f"  telemetry: {server.url}/metrics  /health  /status",
        file=sys.stderr,
    )
    return server


def _print_alerts(report: Dict[str, Any]) -> None:
    episodes = report.get("alerts")
    if episodes is None:
        return
    if not episodes:
        print("\nalerts: none fired")
        return
    print(f"\nalerts ({len(episodes)} episode(s)):")
    for ep in episodes:
        span = (f"t={ep['fired_at']}..{ep['resolved_at']}"
                if ep["resolved_at"] is not None
                else f"t={ep['fired_at']} (still firing)")
        print(f"  [{ep['severity']}] {ep['rule']} {span}: "
              f"{ep['message']}")


def _cmd_run(args: argparse.Namespace) -> int:
    error = _config_usage_error(args, "run")
    if error is not None:
        return error
    if args.alerts not in (None, True):
        import os

        if not os.path.exists(args.alerts):
            print(f"cr-sim run: no alert rules file {args.alerts!r}",
                  file=sys.stderr)
            return 2
    server = _start_server(args.serve)
    config = SimConfig(
        topology=args.topology,
        radix=args.radix,
        dims=args.dims,
        routing=args.routing,
        num_vcs=args.num_vcs,
        buffer_depth=args.buffer_depth,
        num_inject=args.num_inject,
        num_sink=args.num_sink,
        message_length=args.message_length,
        pattern=args.pattern,
        load=args.load,
        workload=args.workload,
        fault_rate=args.fault_rate,
        permanent_faults=args.permanent_faults,
        cascade_faults=args.cascade_faults,
        warmup=args.warmup,
        measure=args.measure,
        drain=args.drain,
        seed=args.seed,
        verify=args.verify or None,
        profile=args.profile,
        alerts=args.alerts,
        serve=server,
        sample_interval=args.sample_interval,
        **_engine_override(args),
    )
    try:
        result = run_simulation(config, keep_engine=args.profile)
    finally:
        if server is not None:
            server.stop()
    verify_summary = result.report.get("verify")
    rows = [
        {"metric": key, "value": value}
        for key, value in sorted(result.report.items())
        if key not in ("verify", "profile", "alerts", "alerts_summary",
                       "timeseries")
    ]
    print(
        format_table(
            rows,
            ["metric", "value"],
            title=(
                f"{args.routing} on {config.make_topology().name}, "
                f"load {args.load}"
            ),
        )
    )
    _print_alerts(result.report)
    if verify_summary is not None:
        print(
            "\ninvariants verified: " + ", ".join(
                f"{key}={value}"
                for key, value in sorted(verify_summary.items())
            )
        )
    if args.profile and result.engine is not None:
        profiler = result.engine.profiler
        print()
        print(format_table(
            profiler.hotspot_rows(),
            ["phase", "calls", "wall_ms", "share_pct", "mean_us",
             "max_us"],
            title=f"engine phase hotspots ({profiler.cycles} cycles, "
                  f"{profiler.step_wall_ns / 1e6:.1f} ms)",
        ))
    return 0


def _progress_printer(total: int):
    """Per-point status lines on stderr (stdout stays machine-readable)."""
    done = [0]

    def report(status: PointStatus) -> None:
        done[0] += 1
        source = "cache" if status.cached else f"{status.elapsed:.1f}s"
        print(
            f"  [{done[0]}/{total}] point {status.index} done ({source})",
            file=sys.stderr,
        )

    return report


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sim.export import rows_to_csv
    from .sim.sweep import load_sweep

    error = _config_usage_error(args, "sweep")
    if error is not None:
        return error
    loads = [float(v) for v in args.loads.split(",") if v.strip()]
    base = SimConfig(
        routing=args.routing,
        radix=args.radix,
        dims=args.dims,
        num_vcs=args.num_vcs,
        message_length=args.message_length,
        pattern=args.pattern,
        workload=args.workload,
        warmup=args.warmup,
        measure=args.measure,
        drain=args.drain,
        seed=args.seed,
        **_engine_override(args),
    )
    workers = args.workers if args.workers > 0 else None
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    rows = load_sweep(
        base,
        loads,
        label=args.routing,
        workers=workers,
        cache=cache,
        progress=_progress_printer(len(loads)),
    )
    if cache is not None and cache.hits:
        print(
            f"  cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"in {cache.path}",
            file=sys.stderr,
        )
    print(
        format_table(
            rows,
            ["load", "latency_mean", "latency_p95", "throughput",
             "kill_rate", "pad_overhead"],
            title=f"{args.routing} load sweep "
                  f"({args.radix}-ary {args.dims}-torus)",
        )
    )
    if args.out:
        count = rows_to_csv(rows, args.out)
        print(f"\nwrote {count} rows to {args.out}")
    return 0


def _trace_artifact_path(arg: Optional[str], name: str,
                         suffix: str) -> Optional[str]:
    """Resolve --jsonl/--perfetto: None, an explicit path, or 'auto'."""
    import os

    from .obs import DEFAULT_TRACE_DIR

    if arg is None:
        return None
    if arg != "auto":
        return arg
    return os.path.join(DEFAULT_TRACE_DIR, f"{name}{suffix}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import event_to_dict, run_traced
    from .stats.trace import (
        channel_heatmap,
        channel_load_stats,
        format_timeline,
        occupancy_snapshot,
    )

    error = _config_usage_error(args, "trace")
    if error is not None:
        return error
    if args.experiment is not None:
        from .obs import config_for_experiment

        name = args.experiment
        try:
            config = config_for_experiment(name, seed=args.seed)
        except ValueError as exc:
            print(f"cr-sim trace: {exc}", file=sys.stderr)
            return 2
        # A preset run exists to produce artifacts: default both on.
        if args.jsonl is None:
            args.jsonl = "auto"
        if args.perfetto is None:
            args.perfetto = "auto"
        title = f"{name} ({config.routing}, load {config.load})"
    else:
        name = args.routing
        config = SimConfig(
            routing=args.routing,
            radix=args.radix,
            dims=args.dims,
            pattern=args.pattern,
            load=args.load,
            message_length=args.message_length,
            warmup=0,
            measure=args.cycles,
            drain=0,
            seed=args.seed,
        )
        title = f"{args.routing} / {args.pattern} / load {args.load}"
    config = config.with_(**_engine_override(args))
    if args.workload is not None:
        config = config.with_(workload=args.workload)
        title += f" / workload {args.workload}"

    if args.hotspot is not None and args.profile is None:
        print("cr-sim trace: --hotspot needs --profile", file=sys.stderr)
        return 2

    server = _start_server(args.serve)
    if server is not None:
        config = config.with_(serve=server)
    try:
        traced = run_traced(
            config,
            jsonl_path=_trace_artifact_path(args.jsonl, name, ".jsonl"),
            perfetto_path=_trace_artifact_path(
                args.perfetto, name, ".perfetto.json"
            ),
            sample_interval=args.sample_interval,
            keep_engine=True,
            profile=args.profile if args.profile is not None else False,
        )
    finally:
        if server is not None:
            server.stop()
    engine = traced.result.engine
    print(f"{title} on {engine.topology.name}, t={engine.now}\n")
    print("buffer occupancy (flits per router):")
    print(occupancy_snapshot(engine))
    print()
    print(
        format_table(
            channel_heatmap(engine, top=8),
            ["link", "dim", "direction", "wrap", "flits", "dead"],
            title="busiest link channels",
        )
    )
    stats = channel_load_stats(engine)
    print(
        f"\nchannel utilisation {stats['utilisation']:.3f} "
        f"flits/channel/cycle, imbalance (max/mean) "
        f"{stats['imbalance']:.2f} over {stats['live_channels']} live "
        f"channel(s) ({stats['dead_channels']} dead)"
    )
    slowest = max(
        engine.ledger.deliveries,
        key=lambda m: m.total_latency() or 0,
        default=None,
    )
    if slowest is not None:
        print("\nslowest delivered message:")
        print(format_timeline(slowest))

    counts = traced.counts()
    if counts:
        print("\nevents: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(counts.items())
        ))
    if args.events > 0:
        print(f"\nlast {min(args.events, len(traced.events))} event(s):")
        for event in traced.events[-args.events:]:
            fields = event_to_dict(event)
            kind = fields.pop("event")
            cycle = fields.pop("cycle")
            body = ", ".join(f"{k}={v}" for k, v in fields.items())
            print(f"  t={cycle} {kind} ({body})")

    if traced.samples:
        if args.series_csv:
            engine.sampler.to_csv(args.series_csv)
            print(f"\nwrote {len(traced.samples)} samples to "
                  f"{args.series_csv}")
        if args.series_svg:
            engine.sampler.to_svg(args.series_svg, title=title)
            print(f"wrote sparklines to {args.series_svg}")
    elif args.series_csv or args.series_svg:
        print("\n(no samples collected; pass --sample-interval)",
              file=sys.stderr)

    if traced.jsonl_path:
        print(f"\nwrote {len(traced.events)} events to "
              f"{traced.jsonl_path}")
    if traced.perfetto_path:
        print(f"wrote {traced.perfetto_entries} trace entries to "
              f"{traced.perfetto_path} (load at ui.perfetto.dev)")

    profiler = traced.profiler
    if profiler is not None:
        print()
        print(
            format_table(
                profiler.hotspot_rows(),
                ["phase", "calls", "wall_ms", "share_pct", "mean_us",
                 "max_us"],
                title=f"engine phase hotspots ({profiler.cycles} cycles, "
                      f"{profiler.step_wall_ns / 1e6:.1f} ms)",
            )
        )
        hotspot_path = _trace_artifact_path(args.hotspot, name,
                                            ".hotspot.md")
        if hotspot_path:
            import os

            os.makedirs(os.path.dirname(hotspot_path) or ".",
                        exist_ok=True)
            with open(hotspot_path, "w") as handle:
                handle.write(profiler.hotspot_markdown())
            print(f"\nwrote hotspot report to {hotspot_path}")
    prom_path = _trace_artifact_path(args.prom, name, ".prom.txt")
    if prom_path:
        from .obs import engine_metrics

        registry = engine_metrics(engine)
        registry.write_prometheus(prom_path)
        print(f"wrote {len(registry.names())} metric families to "
              f"{prom_path}")

    if args.svg:
        from .stats.svg import render_network_svg

        svg = render_network_svg(engine, title=title)
        with open(args.svg, "w") as handle:
            handle.write(svg)
        print(f"\nwrote heat map to {args.svg}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = REGISTRY[args.id]
    scale = PAPER if args.scale == "paper" else QUICK
    if args.workers is not None:
        scale = scale.scaled(
            workers=args.workers if args.workers > 0 else None
        )
    if args.no_cache:
        scale = scale.scaled(cache=False)
    if args.verify:
        scale = scale.scaled(verify=True)
    rows = module.run(scale)
    print(module.table(rows))
    return 0


def _resolve_campaign_spec(name: str, scale_name: str):
    """A built-in campaign by name, or a JSON spec file by path."""
    import json
    import os

    from .campaign import BUILTIN_CAMPAIGNS, CampaignSpec, get_campaign
    from .experiments import PAPER, QUICK

    if name in BUILTIN_CAMPAIGNS:
        return get_campaign(
            name, PAPER if scale_name == "paper" else QUICK
        )
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))
    print(
        f"cr-sim campaign: {name!r} is neither a built-in campaign "
        f"({sorted(BUILTIN_CAMPAIGNS)}) nor a spec file",
        file=sys.stderr,
    )
    raise SystemExit(2)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignPointStatus, CampaignStore, run_campaign

    error = _config_usage_error(args, "campaign")
    if error is not None:
        return error
    scale = "quick" if getattr(args, "quick", False) else args.scale
    spec = _resolve_campaign_spec(args.name, scale)
    if getattr(args, "workload", None) is not None:
        from .campaign import CampaignSpec

        data = spec.to_dict()
        if "grids" in data:
            for body in data["grids"].values():
                body.setdefault("base", {})["workload"] = args.workload
        else:
            data.setdefault("base", {})["workload"] = args.workload
        spec = CampaignSpec.from_dict(data)

    fabric_workers = getattr(args, "workers_fabric", 0) or 0
    if fabric_workers <= 0 and (
        getattr(args, "lease_ttl", None) is not None
        or getattr(args, "lease_batch", None) is not None
    ):
        print(
            "cr-sim campaign run: --lease-ttl/--lease-batch need "
            "--workers-fabric N",
            file=sys.stderr,
        )
        return 2
    if fabric_workers > 0:
        return _campaign_run_fabric(args, spec, fabric_workers)

    def report(status: CampaignPointStatus) -> None:
        if status.outcome == "skipped":
            detail = "already stored"
        elif status.outcome == "failed":
            detail = f"FAILED attempt {status.attempt}"
        else:
            detail = f"{status.elapsed:.1f}s"
        print(
            f"  [{status.done}/{status.total}] {status.point_id} "
            f"({detail})",
            file=sys.stderr,
        )

    server = _start_server(getattr(args, "serve", None))
    try:
        with CampaignStore(args.db) as store:
            stats = run_campaign(
                spec,
                store,
                workers=args.workers if args.workers > 0 else None,
                retries=args.retries,
                progress=report,
                verify=args.verify,
                serve=server,
                trace=args.trace,
            )
    finally:
        if server is not None:
            server.stop()
    print(
        f"campaign {spec.name!r}: {stats.ran} point(s) run, "
        f"{stats.skipped} resumed, {stats.failed} failed "
        f"({stats.retried} retries), {stats.wall_time:.1f}s simulated "
        f"-> {args.db}"
    )
    for point_id in stats.failures:
        print(f"  failed: {point_id}", file=sys.stderr)
    return 0 if stats.complete else 1


def _campaign_run_fabric(args: argparse.Namespace, spec,
                         workers: int) -> int:
    """`campaign run --workers-fabric N`: coordinator + N local workers."""
    from .campaign.fabric import (
        DEFAULT_BATCH,
        DEFAULT_TTL,
        run_fabric,
    )

    if args.db == ":memory:":
        print(
            "cr-sim campaign run: the fabric shards across worker "
            "processes, which need a shared on-disk --db (not :memory:)",
            file=sys.stderr,
        )
        return 2

    last = {"done": -1}

    def narrate(status: Dict[str, Any]) -> None:
        if status["done"] == last["done"]:
            return
        last["done"] = status["done"]
        fabric = status["fabric"]
        failed = status["failed"]
        failed_note = f", {failed} failed" if failed else ""
        print(
            f"  [{status['done']}/{status['total']}{failed_note}] "
            f"{fabric['live_workers']} worker(s) live, "
            f"{fabric['leases_held']} lease(s) held, "
            f"{fabric['reclaims']} reclaim(s)",
            file=sys.stderr,
        )

    server = _start_server(getattr(args, "serve", None))
    try:
        stats = run_fabric(
            spec,
            args.db,
            workers=workers,
            batch=args.lease_batch or DEFAULT_BATCH,
            ttl=args.lease_ttl or DEFAULT_TTL,
            max_attempts=args.retries + 1,
            verify=args.verify,
            serve=server,
            on_poll=narrate,
            trace=args.trace,
        )
    finally:
        if server is not None:
            server.stop()
    print(
        f"campaign {spec.name!r}: {stats.ok} point(s) ok, "
        f"{stats.failed} failed across {stats.workers_seen} worker(s) "
        f"({stats.reclaims} lease reclaim(s)), {stats.elapsed:.1f}s "
        f"-> {args.db}"
    )
    for point_id in stats.failures:
        print(f"  failed: {point_id}", file=sys.stderr)
    return 0 if stats.complete else 1


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from .campaign.fabric import (
        DEFAULT_BATCH,
        DEFAULT_MAX_ATTEMPTS,
        DEFAULT_POLL,
        DEFAULT_TTL,
        Worker,
    )

    if args.db == ":memory:":
        print(
            "cr-sim campaign worker: fabric workers need a shared "
            "on-disk --db (not :memory:)",
            file=sys.stderr,
        )
        return 2
    worker = Worker(
        args.name,
        args.db,
        worker_id=args.worker_id,
        batch=args.batch if args.batch is not None else DEFAULT_BATCH,
        ttl=args.ttl if args.ttl is not None else DEFAULT_TTL,
        poll=args.poll if args.poll is not None else DEFAULT_POLL,
        max_attempts=(args.max_attempts if args.max_attempts is not None
                      else DEFAULT_MAX_ATTEMPTS),
        verify=args.verify,
        trace=True if args.trace else None,
    )
    try:
        stats = worker.run()
    except LookupError as exc:
        print(f"cr-sim campaign worker: {exc}", file=sys.stderr)
        return 2
    print(
        f"worker {worker.worker_id!r}: {stats.ran} point(s) run, "
        f"{stats.failed} failed attempt(s), {stats.reclaims} lease(s) "
        f"reclaimed over {stats.batches} batch(es); campaign "
        f"{'complete' if stats.complete else 'incomplete'}",
        file=sys.stderr,
    )
    return 0 if stats.complete else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import CampaignStore, campaign_markdown

    with CampaignStore(args.db) as store:
        if args.name is None:
            rows = [
                {
                    "campaign": c["name"],
                    "ok": c["ok"],
                    "failed": c["failed"],
                    "description": c["description"],
                }
                for c in store.campaigns()
            ]
            print(format_table(
                rows, ["campaign", "ok", "failed", "description"],
                title=f"stored campaigns in {args.db}",
            ))
        else:
            print(campaign_markdown(store, args.name))
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignStore,
        compare_campaigns,
        comparison_to_csv,
        render_markdown,
    )

    metrics = [m for m in args.metrics.split(",") if m.strip()]
    with CampaignStore(args.db) as store:
        known = {c["name"] for c in store.campaigns()}
        for name in (args.baseline, args.candidate):
            if name not in known:
                print(
                    f"cr-sim campaign report: no stored campaign "
                    f"{name!r} in {args.db} (have: {sorted(known)})",
                    file=sys.stderr,
                )
                return 2
        rows = compare_campaigns(
            store, args.baseline, args.candidate, metrics
        )
    text = render_markdown(rows, args.baseline, args.candidate)
    print(text)
    if args.md:
        with open(args.md, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwrote markdown to {args.md}", file=sys.stderr)
    if args.csv:
        count = comparison_to_csv(rows, args.csv)
        print(f"wrote {count} comparison rows to {args.csv}",
              file=sys.stderr)
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from .campaign import campaign_names, get_campaign
    from .experiments import PAPER, QUICK

    scale = PAPER if args.scale == "paper" else QUICK
    rows = []
    for name in campaign_names():
        spec = get_campaign(name, scale)
        rows.append({
            "campaign": name,
            "points": spec.size,
            "grids": len(spec.grids),
            "description": spec.description,
        })
    print(format_table(
        rows, ["campaign", "points", "grids", "description"],
        title=f"built-in campaigns ({scale.name} scale)",
    ))
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    import os
    import time

    from .campaign import read_status, render_status, status_path
    from .campaign.monitor import status_svg

    path = args.status_file or status_path(args.db, args.name)
    if path is None:
        print(
            "cr-sim campaign watch: in-memory stores have no status "
            "file; pass --status-file",
            file=sys.stderr,
        )
        return 2

    def render_once() -> Optional[Dict[str, Any]]:
        if not os.path.exists(path):
            return None
        status = read_status(path)
        stale_kw = {}
        if args.stale_after is not None:
            stale_kw["stale_after"] = args.stale_after
        print(render_status(status, alerts_only=args.alerts, **stale_kw))
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(status_svg(status))
        return status

    if args.once:
        status = render_once()
        if status is None:
            print(
                f"cr-sim campaign watch: no status file at {path} "
                f"(is the campaign running with a heartbeat?)",
                file=sys.stderr,
            )
            return 2
        return 0

    waited = 0.0
    try:
        while True:
            status = render_once()
            if status is None:
                if waited == 0.0:
                    print(f"waiting for {path} ...", file=sys.stderr)
                waited += args.interval
                if waited > 60.0:
                    print(
                        f"cr-sim campaign watch: gave up after 60s "
                        f"without a status file at {path}",
                        file=sys.stderr,
                    )
                    return 2
            elif status.get("state") == "finished":
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_campaign_timeline(args: argparse.Namespace) -> int:
    from .campaign import CampaignStore
    from .campaign.timeline import (
        timeline_summary,
        write_campaign_timeline,
    )

    with CampaignStore(args.db) as store:
        summary = timeline_summary(store, args.name)
        if summary["spans"] == 0:
            print(
                f"cr-sim campaign timeline: campaign {args.name!r} in "
                f"{args.db} has no journaled spans; run it with "
                f"--trace",
                file=sys.stderr,
            )
            return 2
        kinds = ", ".join(
            f"{kind} {count}"
            for kind, count in sorted(summary["by_kind"].items())
        )
        print(
            f"campaign {args.name!r}: {summary['spans']} span(s) "
            f"across {len(summary['workers'])} process(es), "
            f"{len(summary['traces'])} trace(s), "
            f"{summary['open']} still open"
        )
        print(f"  by kind: {kinds}")
        if args.perfetto is not None:
            try:
                path = write_campaign_timeline(
                    store, args.name, args.perfetto or None
                )
            except ValueError as exc:
                print(f"cr-sim campaign timeline: {exc}",
                      file=sys.stderr)
                return 2
            print(f"wrote merged Perfetto timeline to {path}")
            print("  open it at https://ui.perfetto.dev")
    return 0


def _cmd_campaign_logs(args: argparse.Namespace) -> int:
    import json as json_mod
    import os

    from .obs.log import (
        campaign_log_dir,
        filter_log_records,
        format_log_record,
        read_campaign_logs,
    )

    log_dir = campaign_log_dir(args.db, args.name)
    if log_dir is None:
        print(
            "cr-sim campaign logs: in-memory stores have no log "
            "directory",
            file=sys.stderr,
        )
        return 2
    if not os.path.isdir(log_dir):
        print(
            f"cr-sim campaign logs: no log directory at {log_dir} "
            f"(run the campaign with --trace)",
            file=sys.stderr,
        )
        return 2
    records = read_campaign_logs(log_dir)
    records = filter_log_records(
        records, worker=args.worker, level=args.level, trace=args.trace
    )
    if args.tail is not None and args.tail >= 0:
        records = records[-args.tail:] if args.tail else []
    for record in records:
        if args.json:
            print(json_mod.dumps(record, sort_keys=True))
        else:
            print(format_log_record(record))
    print(f"{len(records)} record(s) from {log_dir}", file=sys.stderr)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "run":
        return _cmd_campaign_run(args)
    if args.campaign_command == "worker":
        return _cmd_campaign_worker(args)
    if args.campaign_command == "status":
        return _cmd_campaign_status(args)
    if args.campaign_command == "report":
        return _cmd_campaign_report(args)
    if args.campaign_command == "list":
        return _cmd_campaign_list(args)
    if args.campaign_command == "watch":
        return _cmd_campaign_watch(args)
    if args.campaign_command == "timeline":
        return _cmd_campaign_timeline(args)
    if args.campaign_command == "logs":
        return _cmd_campaign_logs(args)
    raise AssertionError(
        f"unhandled campaign command {args.campaign_command}"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    """Replay experiment presets with every invariant armed.

    Exit status: 0 when every replay behaved as expected -- clean runs
    pass all checkers; with ``--mutation`` at least one replay must
    *trip* a checker (the differential oracle) -- else 1.  Unknown
    presets or mutations exit 2 with a usage message.
    """
    from .obs.tracing import trace_experiments
    from .verify import mutation_names, verify_presets
    from .verify.mutations import MUTATIONS

    if args.list:
        print("experiment presets: " + ", ".join(trace_experiments()))
        print("seeded mutations:")
        for name in mutation_names():
            mutation = MUTATIONS[name]
            print(f"  {name} [{mutation.caught_by}]: "
                  f"{mutation.description}")
        return 0
    if args.experiment is not None:
        if args.experiment not in trace_experiments():
            print(
                f"cr-sim verify: unknown experiment "
                f"{args.experiment!r}; choose from "
                f"{', '.join(trace_experiments())}",
                file=sys.stderr,
            )
            return 2
        experiments = [args.experiment]
    else:
        experiments = trace_experiments()
    if args.mutation is not None and args.mutation not in mutation_names():
        print(
            f"cr-sim verify: unknown mutation {args.mutation!r}; "
            f"choose from {', '.join(mutation_names())}",
            file=sys.stderr,
        )
        return 2
    overrides = (
        {"radix": 4, "warmup": 50, "measure": 400, "drain": 3000}
        if args.quick
        else None
    )
    outcomes = verify_presets(
        experiments,
        seed=args.seed,
        mutation=args.mutation,
        check_interval=args.check_interval,
        progress_limit=args.progress_limit,
        overrides=overrides,
    )
    for outcome in outcomes:
        if outcome.ok:
            detail = (
                f"{outcome.checks} sweeps, {outcome.delivered} "
                f"delivered, drained={outcome.drained}, "
                f"t={outcome.cycles}"
            )
            print(f"pass   {outcome.experiment}: {detail}")
        elif outcome.violation is not None:
            v = outcome.violation
            print(
                f"CAUGHT {outcome.experiment}: [{v.invariant}] "
                f"t={v.cycle}: {v.detail}"
            )
        else:
            print(f"CAUGHT {outcome.experiment}: {outcome.error}")
    if args.mutation is not None:
        caught = sum(1 for outcome in outcomes if outcome.caught)
        print(
            f"\nmutation {args.mutation!r}: caught in {caught}/"
            f"{len(outcomes)} preset(s)"
        )
        return 0 if caught else 1
    clean = all(outcome.ok for outcome in outcomes)
    print(
        f"\n{len(outcomes)} preset(s) replayed under full checking: "
        + ("all invariants hold" if clean else "INVARIANT VIOLATED")
    )
    return 0 if clean else 1


def _cmd_list() -> int:
    rows = [
        {
            "id": key,
            "module": module.__name__.rsplit(".", 1)[-1],
            "what": (module.__doc__ or "").strip().splitlines()[0],
        }
        for key, module in sorted(REGISTRY.items())
    ]
    print(format_table(rows, ["id", "module", "what"]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "verify":
        return _cmd_verify(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
