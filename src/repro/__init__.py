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

from .campaign import run_campaign
from .core.backoff import ExponentialBackoff, StaticGap
from .core.padding import PaddingParams
from .core.protocol import ProtocolConfig, ProtocolMode
from .core.swretry import SoftwareReliability
from .core.timeout import FixedTimeout
from .faults.model import CompositeFaultModel, NoFaults
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
from .obs import (
    ListSink,
    attach,
    detach,
    engine_metrics,
    parse_prometheus_text,
    read_jsonl,
    run_traced,
)
from .routing.base import Candidate
from .routing.dor import DimensionOrder
from .routing.duato import Duato
from .routing.minimal_adaptive import MinimalAdaptive
from .routing.misrouting import MisroutingAdaptive
from .routing.selection import (
    FirstFree,
    LeastOccupied,
    RandomFree,
    make_selection,
)
from .routing.turnmodel import NegativeFirst
from .sim.config import SimConfig
from .sim.export import read_csv
from .sim.simulator import run_simulation
from .stats.report import format_table
from .stats.svg import render_network_svg
from .stats.trace import (
    buffer_occupancy,
    channel_heatmap,
    channel_load_stats,
    format_timeline,
    message_timeline,
    occupancy_snapshot,
)
from .topology.graph import GraphTopology
from .topology.torus import mesh, torus
from .traffic.lengths import BimodalLength, FixedLength
from .traffic.loads import capacity_flits_per_node_cycle, injection_rate
from .traffic.patterns import (
    BitReversal,
    Complement,
    Hotspot,
    NearestNeighbour,
    Transpose,
    Uniform,
    make_pattern,
)
from .verify import InvariantViolation, VerifyConfig, verify_preset
from .workload import BernoulliArrivals

__version__ = "1.7.0"

# The names a script, a test or a doc example reaches for first; each
# subpackage's own ``__all__`` is the full surface (``repro.campaign``,
# ``repro.obs``, ``repro.verify``, ``repro.workload``, ...).
__all__ = [
    # simulation entry points
    "SimConfig",
    "run_simulation",
    "run_campaign",
    "read_csv",
    # core protocol
    "ProtocolConfig",
    "ProtocolMode",
    "PaddingParams",
    "FixedTimeout",
    "StaticGap",
    "ExponentialBackoff",
    "SoftwareReliability",
    # network substrate: the shared base, the product engine (the spec
    # is repro.verify.reference.ReferenceEngine, loaded on demand)
    "Engine",
    "FastEngine",
    "NetworkDeadlockError",
    "WormholeNetwork",
    "Message",
    # routing
    "Candidate",
    "DimensionOrder",
    "MinimalAdaptive",
    "MisroutingAdaptive",
    "Duato",
    "NegativeFirst",
    "FirstFree",
    "RandomFree",
    "LeastOccupied",
    "make_selection",
    # topology
    "torus",
    "mesh",
    "GraphTopology",
    # faults
    "NoFaults",
    "CompositeFaultModel",
    "TransientFaults",
    "ChannelFault",
    "PermanentFaultSchedule",
    "random_channel_faults",
    "kill_router",
    # traffic
    "Uniform",
    "Transpose",
    "Complement",
    "BitReversal",
    "Hotspot",
    "NearestNeighbour",
    "make_pattern",
    "FixedLength",
    "BimodalLength",
    "capacity_flits_per_node_cycle",
    "injection_rate",
    "BernoulliArrivals",
    # statistics
    "format_table",
    "message_timeline",
    "format_timeline",
    "buffer_occupancy",
    "occupancy_snapshot",
    "channel_heatmap",
    "channel_load_stats",
    "render_network_svg",
    # observability
    "ListSink",
    "attach",
    "detach",
    "run_traced",
    "read_jsonl",
    "engine_metrics",
    "parse_prometheus_text",
    # verification
    "InvariantViolation",
    "VerifyConfig",
    "verify_preset",
]
