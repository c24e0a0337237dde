"""Compressionless Routing (CR/FCR) -- reproduction library.

Reproduces Kim, Liu & Chien, "Compressionless Routing: A Framework for
Adaptive and Fault-tolerant Routing" (ISCA 1994 / IEEE TPDS): a
flit-level wormhole-network simulator, the CR and FCR network-interface
protocols, the paper's baselines (dimension-order, Duato, turn-model
routing), fault models, and the experiment harness that regenerates the
paper's evaluation.

Quick start::

    from repro import SimConfig, run_simulation

    result = run_simulation(SimConfig(routing="cr", radix=8, load=0.4))
    print(result.latency, result.throughput)
"""

from .core.backoff import ExponentialBackoff, RetransmitPolicy, StaticGap
from .core.guarantees import DeliveryLedger, GuaranteeViolation, OrderGate
from .core.padding import (
    PaddingParams,
    cr_min_injection_length,
    cr_wire_length,
    fcr_wire_length,
    padding_overhead,
    path_capacity,
)
from .core.protocol import (
    KillCause,
    MessagePhase,
    ProtocolConfig,
    ProtocolMode,
)
from .core.swretry import SoftwareReliability
from .core.timeout import (
    FixedTimeout,
    LengthScaledTimeout,
    PathWideTimeout,
    TimeoutPolicy,
)
from .faults.model import CompositeFaultModel, FaultModel, NoFaults
from .faults.permanent import (
    ChannelFault,
    PermanentFaultSchedule,
    kill_router,
    random_channel_faults,
)
from .faults.transient import TransientFaults
from .network.engine import Engine, NetworkDeadlockError
from .network.fastengine import FastEngine
from .network.message import Message
from .network.network import WormholeNetwork
from .routing.base import Candidate, RoutingFunction
from .routing.dor import DimensionOrder
from .routing.duato import Duato
from .routing.minimal_adaptive import MinimalAdaptive, NaiveAdaptive
from .routing.misrouting import MisroutingAdaptive
from .routing.selection import (
    FirstFree,
    LeastOccupied,
    RandomFree,
    SelectionPolicy,
    make_selection,
)
from .routing.turnmodel import NegativeFirst
from .sim.config import SCHEMES, SimConfig
from .sim.simulator import SimResult, run_simulation
from .sim.export import read_csv, rows_to_csv
from .sim.parallel import (
    PointFailure,
    PointStatus,
    SweepCache,
    config_cache_key,
    run_reports,
)
from .sim.replicate import (
    intervals_separated,
    replicate,
    significantly_better,
    summarize_samples,
)
from .campaign import (
    CampaignMonitor,
    CampaignPoint,
    CampaignRunStats,
    CampaignSpec,
    CampaignStore,
    compare_campaigns,
    get_campaign,
    read_status,
    render_markdown,
    render_status,
    run_campaign,
    run_fabric,
)
from .sim.sweep import (
    load_sweep,
    matrix_sweep,
    param_sweep,
    report_row,
    result_row,
    saturation_load,
)
from .stats.collector import StatsCollector
from .stats.latency import LatencySummary, histogram, percentile, summarize
from .stats.report import format_series, format_table
from .analysis.latency_model import (
    cr_latency,
    fcr_latency,
    mean_uniform_latency,
    pcs_latency,
    plain_latency,
)
from .obs import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    DeadlockReport,
    EngineProfiler,
    EventBus,
    IntervalSampler,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    RingBufferSink,
    TracedRun,
    attach,
    builtin_rules,
    config_for_experiment,
    detach,
    engine_metrics,
    health_report,
    load_rules,
    parse_prometheus_text,
    read_jsonl,
    run_traced,
    write_chrome_trace,
)
from .stats.svg import render_network_svg, render_sparkline_rows
from .verify import (
    InvariantChecker,
    InvariantViolation,
    VerifyConfig,
    apply_mutation,
    mutation_names,
    verify_preset,
)
from .stats.trace import (
    buffer_occupancy,
    channel_heatmap,
    channel_load_stats,
    format_timeline,
    message_timeline,
    occupancy_snapshot,
)
from .topology.base import LinkSpec, Topology
from .topology.graph import GraphTopology
from .topology.hypercube import Hypercube
from .topology.torus import KAryNCube, mesh, torus
from .traffic.lengths import BimodalLength, FixedLength, LengthDistribution
from .traffic.loads import capacity_flits_per_node_cycle, injection_rate
from .traffic.trace import Trace, TraceEntry, record_trace
from .traffic.patterns import (
    BitReversal,
    Complement,
    Hotspot,
    Incast,
    NearestNeighbour,
    Shuffle,
    Tornado,
    TrafficPattern,
    Transpose,
    Uniform,
    make_pattern,
)
from .faults.cascading import LoadDependentFaults, make_cascading
from .workload import (
    ArrivalProcess,
    BernoulliArrivals,
    GeometricArrivals,
    MMPPArrivals,
    OpenLoopSource,
    ParetoArrivals,
    RequestReply,
    ScheduledArrival,
    WorkloadGenerator,
    WorkloadSpec,
    build_workload,
    load_workload_trace,
    make_arrivals,
    save_workload_trace,
)

__version__ = "1.7.0"

__all__ = [
    # simulation entry points
    "SimConfig",
    "SimResult",
    "run_simulation",
    "load_sweep",
    "param_sweep",
    "matrix_sweep",
    "saturation_load",
    "report_row",
    "result_row",
    "run_reports",
    "SweepCache",
    "PointStatus",
    "PointFailure",
    "config_cache_key",
    "replicate",
    "significantly_better",
    "summarize_samples",
    "intervals_separated",
    # campaign orchestration
    "CampaignSpec",
    "CampaignPoint",
    "CampaignStore",
    "CampaignRunStats",
    "CampaignMonitor",
    "run_campaign",
    "run_fabric",
    "compare_campaigns",
    "render_markdown",
    "render_status",
    "read_status",
    "get_campaign",
    "rows_to_csv",
    "read_csv",
    "SCHEMES",
    # core protocol
    "ProtocolConfig",
    "ProtocolMode",
    "MessagePhase",
    "KillCause",
    "PaddingParams",
    "path_capacity",
    "cr_min_injection_length",
    "cr_wire_length",
    "fcr_wire_length",
    "padding_overhead",
    "TimeoutPolicy",
    "FixedTimeout",
    "LengthScaledTimeout",
    "PathWideTimeout",
    "RetransmitPolicy",
    "StaticGap",
    "ExponentialBackoff",
    "OrderGate",
    "DeliveryLedger",
    "GuaranteeViolation",
    "SoftwareReliability",
    # network substrate
    "Engine",
    "FastEngine",
    "NetworkDeadlockError",
    "WormholeNetwork",
    "Message",
    # routing
    "RoutingFunction",
    "Candidate",
    "DimensionOrder",
    "MinimalAdaptive",
    "NaiveAdaptive",
    "MisroutingAdaptive",
    "Duato",
    "NegativeFirst",
    "SelectionPolicy",
    "FirstFree",
    "RandomFree",
    "LeastOccupied",
    "make_selection",
    # topology
    "Topology",
    "LinkSpec",
    "KAryNCube",
    "torus",
    "mesh",
    "Hypercube",
    "GraphTopology",
    # faults
    "FaultModel",
    "NoFaults",
    "CompositeFaultModel",
    "TransientFaults",
    "ChannelFault",
    "PermanentFaultSchedule",
    "random_channel_faults",
    "kill_router",
    # traffic
    "TrafficPattern",
    "Uniform",
    "Transpose",
    "Complement",
    "BitReversal",
    "Hotspot",
    "NearestNeighbour",
    "Incast",
    "Tornado",
    "Shuffle",
    "make_pattern",
    "LengthDistribution",
    "FixedLength",
    "BimodalLength",
    "capacity_flits_per_node_cycle",
    "injection_rate",
    "Trace",
    "TraceEntry",
    "record_trace",
    # workloads (see repro.workload for the full surface)
    "ArrivalProcess",
    "BernoulliArrivals",
    "GeometricArrivals",
    "ParetoArrivals",
    "MMPPArrivals",
    "make_arrivals",
    "OpenLoopSource",
    "RequestReply",
    "ScheduledArrival",
    "WorkloadGenerator",
    "WorkloadSpec",
    "build_workload",
    "load_workload_trace",
    "save_workload_trace",
    "LoadDependentFaults",
    "make_cascading",
    # statistics
    "StatsCollector",
    "LatencySummary",
    "summarize",
    "percentile",
    "histogram",
    "format_table",
    "format_series",
    "message_timeline",
    "format_timeline",
    "buffer_occupancy",
    "occupancy_snapshot",
    "channel_heatmap",
    "channel_load_stats",
    "render_network_svg",
    "render_sparkline_rows",
    # observability (see repro.obs for the full surface)
    "EventBus",
    "RingBufferSink",
    "ListSink",
    "JsonlSink",
    "IntervalSampler",
    "DeadlockReport",
    "TracedRun",
    "attach",
    "detach",
    "run_traced",
    "config_for_experiment",
    "read_jsonl",
    "write_chrome_trace",
    "EngineProfiler",
    "MetricsRegistry",
    "engine_metrics",
    "parse_prometheus_text",
    # telemetry service + alerts (see repro.obs for the full surface)
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "EngineTelemetry",
    "TelemetryServer",
    "builtin_rules",
    "health_report",
    "load_rules",
    # verification (see repro.verify for the full surface)
    "InvariantChecker",
    "InvariantViolation",
    "VerifyConfig",
    "apply_mutation",
    "mutation_names",
    "verify_preset",
    # analytical models
    "plain_latency",
    "cr_latency",
    "fcr_latency",
    "pcs_latency",
    "mean_uniform_latency",
]


def __getattr__(name: str):
    # The telemetry server's names load http.server; see repro.obs.
    if name in ("EngineTelemetry", "TelemetryServer"):
        from . import obs

        return getattr(obs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
