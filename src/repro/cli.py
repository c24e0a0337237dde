"""Command-line interface: ``cr-sim``.

Examples::

    cr-sim run --routing cr --radix 8 --load 0.3
    cr-sim experiment e01
    cr-sim experiment e07 --scale paper
    cr-sim list
    cr-sim campaign run fault-matrix --workers 0
    cr-sim campaign report fault-matrix fault-matrix-v2

Three conventions, each fact in one place:

* **Flag table.**  A ``SimConfig``-backed flag is declared once, in
  ``_CONFIG_FLAGS``; a subcommand lists the names it takes and its own
  defaults in ``_COMMAND_FLAGS``; ``_config_from_args`` builds the
  configuration from exactly those, and ``_checked`` builds it eagerly.
* **UsageError.**  Misuse raises ``UsageError`` where it is detected;
  ``main()`` catches it once, prints ``cr-sim <command>: <message>`` on
  one stderr line and exits 2.  Exit 1 is a run that failed or found a
  violation; argparse's own errors (unknown flag, bad choice) still
  raise ``SystemExit``.
* **Handler binding.**  A subparser binds its handler with
  ``set_defaults(handler=...)`` where it is declared; ``main()`` calls it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import experiments
from .sim.config import SCHEMES, SimConfig
from .sim.parallel import DEFAULT_CACHE_DIR, PointStatus, SweepCache
from .sim.simulator import run_simulation
from .stats.report import format_table


class UsageError(Exception):
    """The command line asks for something the command cannot do."""


#: every ``SimConfig``-backed flag, declared once: field name -> the
#: argparse keywords of ``--field-name``.  A ``default`` here is the
#: flag's value when absent wherever that is not ``SimConfig``'s own
#: (``--engine`` has none: absent, it overrides nothing).
_CONFIG_FLAGS: Dict[str, Dict[str, Any]] = {
    "routing": {"choices": sorted(SCHEMES)},
    "topology": {"choices": ["torus", "mesh", "hypercube"]},
    "radix": {"type": int},
    "dims": {"type": int},
    "num_vcs": {"type": int},
    "buffer_depth": {"type": int},
    "num_inject": {"type": int},
    "num_sink": {"type": int},
    "message_length": {"type": int},
    "pattern": {},
    "load": {"type": float},
    "workload": {
        "metavar": "SPEC",
        "help": "production workload spec: bernoulli | geometric | poisson "
                "| mmpp | pareto | incast | client-server | phased | "
                "trace:<path>, with optional k=v args after ':' "
                "(see docs/WORKLOADS.md)",
    },
    "fault_rate": {"type": float},
    "permanent_faults": {"type": int},
    "cascade_faults": {
        "metavar": "SPEC",
        "help": "load-dependent cascading faults: 'cascade' for defaults "
                "or 'k=v,...' LoadDependentFaults kwargs "
                "(see docs/WORKLOADS.md)",
    },
    "warmup": {"type": int},
    "measure": {"type": int},
    "drain": {"type": int},
    "seed": {"type": int},
    "verify": {
        "action": "store_true", "default": False,
        "help": "arm the runtime protocol-invariant checker "
                "(see docs/VERIFICATION.md)",
    },
    "profile": {
        "action": "store_true",
        "help": "arm the engine self-profiler and print the per-phase "
                "hotspot table (see docs/OBSERVABILITY.md)",
    },
    "alerts": {
        "nargs": "?", "const": True, "metavar": "RULES.json",
        "help": "arm the alert rules engine: built-in rules, or a JSON "
                "rules file (see docs/OBSERVABILITY.md)",
    },
    "sample_interval": {
        "type": int, "metavar": "CYCLES",
        "help": "collect time-series metrics every CYCLES cycles (alerts "
                "and --serve evaluate on these boundaries; default 200 "
                "when either is armed)",
    },
    "engine": {
        "default": None, "choices": ["reference", "fast"],
        "help": "simulation engine: the fast engine with event "
                "skipping or the flit-identical reference cycle loop "
                "it is checked against (default: SimConfig's, or the "
                "preset's; see docs/SIMULATOR.md)",
    },
}

#: subcommand -> (the config flags it takes, in --help order; its own
#: defaults where they differ from the table's and ``SimConfig``'s).
_COMMAND_FLAGS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "run": (
        tuple(_CONFIG_FLAGS),  # every one of them
        {"load": 0.3, "warmup": 500, "measure": 2000},
    ),
    "sweep": (
        ("routing", "radix", "dims", "num_vcs", "message_length",
         "pattern", "workload", "warmup", "measure", "drain", "seed",
         "engine"),
        {"warmup": 500, "measure": 2000},
    ),
    "trace": (
        ("routing", "radix", "dims", "pattern", "load", "workload",
         "message_length", "seed", "sample_interval", "engine"),
        {"pattern": "transpose", "load": 0.3},
    ),
}

#: the ``trace`` flags that also apply over a preset: given, they
#: override it; absent (None), they leave it alone.
_PRESET_OVERRIDES = ("workload", "sample_interval", "engine")


def _add_config_flags(parser: argparse.ArgumentParser,
                      command: str) -> None:
    """Declare ``command``'s share of the flag table on its parser."""
    names, own = _COMMAND_FLAGS[command]
    defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    for name in names:
        parser.add_argument(
            "--" + name.replace("_", "-"),
            **{"default": defaults[name], **_CONFIG_FLAGS[name]},
        )
    parser.set_defaults(**own)


def _given(**values: Any) -> Dict[str, Any]:
    """Keywords for the flags that were given: an absent flag (None)
    leaves the callee's own default in place."""
    return {k: v for k, v in values.items() if v is not None}


def _named(args: argparse.Namespace,
           names: Tuple[str, ...]) -> Dict[str, Any]:
    """The ``SimConfig`` fields those flags name; absent, a flag leaves
    ``SimConfig``'s -- or a preset's -- value standing."""
    return _given(**{name: getattr(args, name) for name in names})


def _config_from_args(args: argparse.Namespace, **fixed: Any) -> SimConfig:
    """The configuration a subcommand's declared flags name, plus the
    fields the subcommand fixes itself."""
    return SimConfig(**_named(args, _COMMAND_FLAGS[args.command][0]),
                     **fixed)


def _checked(config: SimConfig) -> SimConfig:
    """``config``, built once before anything else starts (a telemetry
    server, a pool): whatever ``build()`` rejects is misuse."""
    try:
        config.build()
    except (TypeError, ValueError, OSError) as exc:
        raise UsageError(str(exc)) from None
    return config


def _pool_width(workers: int) -> Optional[int]:
    """``--workers`` as an executor width: 0 is one per CPU (None)."""
    if workers < 0:
        raise UsageError(f"--workers must be >= 0, got {workers}")
    return workers or None


def _scale(name: str):
    """The experiment scale ``--scale`` names."""
    return experiments.PAPER if name == "paper" else experiments.QUICK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cr-sim",
        description=(
            "Compressionless Routing simulator "
            "(Kim, Liu & Chien, ISCA 1994 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_serve(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--serve", default=None, metavar="[HOST:]PORT",
            help="serve live telemetry over HTTP while the run "
                 "executes: /metrics (Prometheus), /health, /status "
                 "(port 0 = ephemeral; see docs/OBSERVABILITY.md)",
        )

    def add_scale(p: argparse.ArgumentParser, help=None) -> None:
        p.add_argument(
            "--scale", default="quick", choices=["quick", "paper"], help=help
        )

    run_p = sub.add_parser("run", help="run one simulation")
    _add_config_flags(run_p, "run")
    add_serve(run_p)
    run_p.set_defaults(handler=_cmd_run)

    exp_p = sub.add_parser("experiment", help="reproduce a table/figure")
    exp_p.add_argument("id", choices=sorted(experiments.REGISTRY))
    add_scale(exp_p)
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
    exp_p.set_defaults(handler=_cmd_experiment)

    sweep_p = sub.add_parser("sweep", help="latency/throughput load sweep")
    _add_config_flags(sweep_p, "sweep")
    sweep_p.add_argument(
        "--loads",
        default="0.1,0.2,0.3,0.4",
        help="comma-separated load fractions",
    )
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
    sweep_p.set_defaults(handler=_cmd_sweep)

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
    _add_config_flags(trace_p, "trace")
    trace_p.add_argument("--cycles", type=int, default=1500)
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
    trace_p.set_defaults(handler=_cmd_trace)

    list_p = sub.add_parser("list", help="list available experiments")
    list_p.set_defaults(handler=_cmd_list)

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
    add_scale(crun_p, help="network/run sizing for built-in campaigns")
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
    crun_p.set_defaults(handler=_cmd_campaign_run)

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
    cworker_p.set_defaults(handler=_cmd_campaign_worker)

    cstat_p = camp_sub.add_parser(
        "status", help="stored campaigns, or one campaign in detail"
    )
    cstat_p.add_argument("name", nargs="?", default=None)
    add_db(cstat_p)
    cstat_p.set_defaults(handler=_cmd_campaign_status)

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
    cwatch_p.set_defaults(handler=_cmd_campaign_watch)

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
    ctl_p.set_defaults(handler=_cmd_campaign_timeline)

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
    clog_p.set_defaults(handler=_cmd_campaign_logs)

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
    crep_p.set_defaults(handler=_cmd_campaign_report)

    clist_p = camp_sub.add_parser(
        "list", help="built-in campaigns and their grid sizes"
    )
    add_scale(clist_p)
    clist_p.set_defaults(handler=_cmd_campaign_list)

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
    verify_p.set_defaults(handler=_cmd_verify)
    return parser


@contextlib.contextmanager
def _serving(spec: Optional[str]) -> Iterator[Any]:
    """The ``--serve`` telemetry server for the length of a run: started
    and announced on entry, stopped on exit; None without the flag."""
    if spec is None:
        yield None
        return
    from .obs.server import make_telemetry_server

    try:
        server = make_telemetry_server(spec)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from None
    print(
        f"  telemetry: {server.url}/metrics  /health  /status",
        file=sys.stderr,
    )
    try:
        yield server
    finally:
        server.stop()


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


def _print_hotspots(profiler: Any) -> None:
    print()
    print(format_table(
        profiler.hotspot_rows(),
        ["phase", "calls", "wall_ms", "share_pct", "mean_us", "max_us"],
        title=f"engine phase hotspots ({profiler.cycles} cycles, "
              f"{profiler.step_wall_ns / 1e6:.1f} ms)",
    ))


def _cmd_run(args: argparse.Namespace) -> int:
    if args.alerts not in (None, True) and not os.path.exists(args.alerts):
        raise UsageError(f"no alert rules file {args.alerts!r}")
    config = _checked(_config_from_args(args))
    with _serving(args.serve) as server:
        result = run_simulation(
            config.with_(serve=server), keep_engine=args.profile
        )
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
    if args.profile:
        _print_hotspots(result.engine.profiler)
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

    try:
        loads = [float(v) for v in args.loads.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"--loads: {exc}") from None
    if not loads:
        raise UsageError("--loads names no load point")
    base = _config_from_args(args)
    _checked(base.with_(load=loads[0]))
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    rows = load_sweep(
        base,
        loads,
        label=args.routing,
        workers=_pool_width(args.workers),
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


def _preset_config(name: str, **overrides: Any) -> SimConfig:
    """The experiment preset ``trace`` and ``verify`` know as ``name``."""
    from .obs import config_for_experiment

    try:
        return config_for_experiment(name, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _trace_artifact_path(arg: Optional[str], name: str,
                         suffix: str) -> Optional[str]:
    """Resolve --jsonl/--perfetto: None, an explicit path, or 'auto'."""
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

    if args.hotspot is not None and args.profile is None:
        raise UsageError("--hotspot needs --profile")
    if args.experiment is not None:
        name = args.experiment
        config = _preset_config(name, seed=args.seed).with_(
            **_named(args, _PRESET_OVERRIDES)
        )
        # A preset run exists to produce artifacts: default both on.
        if args.jsonl is None:
            args.jsonl = "auto"
        if args.perfetto is None:
            args.perfetto = "auto"
        title = f"{name} ({config.routing}, load {config.load})"
    else:
        name = args.routing
        config = _config_from_args(
            args, warmup=0, measure=args.cycles, drain=0
        )
        title = f"{args.routing} / {args.pattern} / load {args.load}"
    if args.workload is not None:
        title += f" / workload {args.workload}"
    _checked(config)

    with _serving(args.serve) as server:
        traced = run_traced(
            config.with_(serve=server),
            jsonl_path=_trace_artifact_path(args.jsonl, name, ".jsonl"),
            perfetto_path=_trace_artifact_path(
                args.perfetto, name, ".perfetto.json"
            ),
            keep_engine=True,
            profile=args.profile or False,
        )
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

    if traced.profiler is not None:
        _print_hotspots(traced.profiler)
        hotspot_path = _trace_artifact_path(args.hotspot, name,
                                            ".hotspot.md")
        if hotspot_path:
            os.makedirs(os.path.dirname(hotspot_path) or ".",
                        exist_ok=True)
            with open(hotspot_path, "w") as handle:
                handle.write(traced.profiler.hotspot_markdown())
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
    experiment = experiments.REGISTRY[args.id]
    scale = _scale(args.scale)
    if args.workers is not None:
        scale = scale.scaled(workers=_pool_width(args.workers))
    if args.no_cache:
        scale = scale.scaled(cache=False)
    if args.verify:
        scale = scale.scaled(verify=True)
    rows = experiment.run(scale)
    print(experiment.table(rows))
    # Not the exit status: a claim is written for the quick scale and
    # may legitimately fail at another.
    print(experiment.verdict(rows, scale))
    return 0


def _resolve_campaign_spec(name: str, scale_name: str):
    """A built-in campaign by name, or a JSON spec file by path."""
    import json

    from .campaign import BUILTIN_CAMPAIGNS, CampaignSpec, get_campaign

    if name in BUILTIN_CAMPAIGNS:
        return get_campaign(name, _scale(scale_name))
    if not os.path.exists(name):
        raise UsageError(
            f"{name!r} is neither a built-in campaign "
            f"({sorted(BUILTIN_CAMPAIGNS)}) nor a spec file"
        )
    try:
        with open(name, "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"spec file {name}: {exc}") from None


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignPointStatus, CampaignStore, run_campaign

    spec = _resolve_campaign_spec(
        args.name, "quick" if args.quick else args.scale
    )
    if args.workload is not None:
        spec = dataclasses.replace(spec, grids=tuple(
            dataclasses.replace(
                grid, base={**grid.base, "workload": args.workload}
            )
            for grid in spec.grids
        ))
        _checked(next(spec.points()).config)
    if args.retries < 0:
        raise UsageError(f"--retries must be >= 0, got {args.retries}")
    workers = _pool_width(args.workers)

    if args.workers_fabric > 0:
        return _campaign_run_fabric(args, spec)
    if args.lease_ttl is not None or args.lease_batch is not None:
        raise UsageError(
            "--lease-ttl/--lease-batch need --workers-fabric N"
        )

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

    with _serving(args.serve) as server, CampaignStore(args.db) as store:
        stats = run_campaign(
            spec,
            store,
            workers=workers,
            retries=args.retries,
            progress=report,
            verify=args.verify,
            serve=server,
            trace=args.trace,
        )
    print(
        f"campaign {spec.name!r}: {stats.ran} point(s) run, "
        f"{stats.skipped} resumed, {stats.failed} failed "
        f"({stats.retried} retries), {stats.wall_time:.1f}s simulated "
        f"-> {args.db}"
    )
    for point_id in stats.failures:
        print(f"  failed: {point_id}", file=sys.stderr)
    return 0 if stats.complete else 1


def _require_shared_db(db: str) -> None:
    if db == ":memory:":
        raise UsageError(
            "the fabric shards across worker processes, which need a "
            "shared on-disk --db (not :memory:)"
        )


def _campaign_run_fabric(args: argparse.Namespace, spec) -> int:
    """`campaign run --workers-fabric N`: coordinator + N local workers."""
    from .campaign.fabric import run_fabric

    _require_shared_db(args.db)
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

    with _serving(args.serve) as server:
        stats = run_fabric(
            spec,
            args.db,
            workers=args.workers_fabric,
            max_attempts=args.retries + 1,
            verify=args.verify,
            serve=server,
            on_poll=narrate,
            trace=args.trace,
            # --lease-batch 0 / --lease-ttl 0 ask for the default too.
            **_given(batch=args.lease_batch or None,
                     ttl=args.lease_ttl or None),
        )
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
    from .campaign.fabric import Worker

    _require_shared_db(args.db)
    worker = Worker(
        args.name,
        args.db,
        worker_id=args.worker_id,
        verify=args.verify,
        trace=True if args.trace else None,
        **_given(batch=args.batch, ttl=args.ttl, poll=args.poll,
                 max_attempts=args.max_attempts),
    )
    try:
        stats = worker.run()
    except LookupError as exc:
        raise UsageError(str(exc)) from None
    print(
        f"worker {worker.worker_id!r}: {stats.ran} point(s) run, "
        f"{stats.failed} failed attempt(s), {stats.reclaims} lease(s) "
        f"reclaimed over {stats.batches} batch(es); campaign "
        f"{'complete' if stats.complete else 'incomplete'}",
        file=sys.stderr,
    )
    return 0 if stats.complete else 1


def _require_stored(store: Any, *names: str) -> None:
    """Each of ``names`` is a campaign the store holds."""
    known = sorted(c["name"] for c in store.campaigns())
    for name in names:
        if name not in known:
            raise UsageError(
                f"no stored campaign {name!r} in {store.path} "
                f"(have: {known})"
            )


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
            _require_stored(store, args.name)
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
        _require_stored(store, args.baseline, args.candidate)
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

    scale = _scale(args.scale)
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
    import time

    from .campaign import read_status, render_status, status_path
    from .campaign.monitor import status_svg

    path = args.status_file or status_path(args.db, args.name)
    if path is None:
        raise UsageError(
            "in-memory stores have no status file; pass --status-file"
        )

    def render_once() -> Optional[Dict[str, Any]]:
        if not os.path.exists(path):
            return None
        status = read_status(path)
        print(render_status(status, alerts_only=args.alerts,
                            **_given(stale_after=args.stale_after)))
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(status_svg(status))
        return status

    if args.once:
        if render_once() is None:
            raise UsageError(
                f"no status file at {path} "
                f"(is the campaign running with a heartbeat?)"
            )
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
                    raise UsageError(
                        f"gave up after 60s without a status file at "
                        f"{path}"
                    )
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
            raise UsageError(
                f"campaign {args.name!r} in {args.db} has no journaled "
                f"spans; run it with --trace"
            )
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
            path = write_campaign_timeline(
                store, args.name, args.perfetto or None
            )
            print(f"wrote merged Perfetto timeline to {path}")
            print("  open it at https://ui.perfetto.dev")
    return 0


def _cmd_campaign_logs(args: argparse.Namespace) -> int:
    import json as json_mod

    from .obs.log import (
        campaign_log_dir,
        filter_log_records,
        format_log_record,
        read_campaign_logs,
    )

    log_dir = campaign_log_dir(args.db, args.name)
    if log_dir is None:
        raise UsageError("in-memory stores have no log directory")
    if not os.path.isdir(log_dir):
        raise UsageError(
            f"no log directory at {log_dir} "
            f"(run the campaign with --trace)"
        )
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
        _preset_config(args.experiment)  # an unknown name is misuse
        presets = [args.experiment]
    else:
        presets = trace_experiments()
    if args.mutation is not None and args.mutation not in mutation_names():
        raise UsageError(
            f"unknown mutation {args.mutation!r}; "
            f"choose from {', '.join(mutation_names())}"
        )
    overrides = (
        {"radix": 4, "warmup": 50, "measure": 400, "drain": 3000}
        if args.quick
        else None
    )
    outcomes = verify_presets(
        presets,
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


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "id": key,
            "module": module.__name__.rsplit(".", 1)[-1],
            "what": (module.__doc__ or "").strip().splitlines()[0],
        }
        for key, module in sorted(experiments.REGISTRY.items())
    ]
    print(format_table(rows, ["id", "module", "what"]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        command = args.command
        if command == "campaign":
            command += " " + args.campaign_command
        print(f"cr-sim {command}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
