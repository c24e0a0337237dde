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

from ._lazy import lazy_exports

__version__ = "1.7.0"

# The names a script, a test or a doc example reaches for first; each
# subpackage's own ``__all__`` is the full surface (``repro.campaign``,
# ``repro.obs``, ``repro.verify``, ``repro.workload``, ...).  Each
# resolves on first use: ``import repro`` loads no submodule.
_EXPORTS = {
    # simulation entry points
    "sim.config": ("SimConfig",),
    "sim.simulator": ("run_simulation",),
    "campaign": ("run_campaign",),
    # core protocol
    "core.protocol": ("ProtocolConfig", "ProtocolMode"),
    "core.timeout": ("FixedTimeout",),
    "core.backoff": ("StaticGap", "ExponentialBackoff"),
    "core.swretry": ("SoftwareReliability",),
    # network substrate: the product engine (the spec is
    # repro.verify.reference.ReferenceEngine, loaded on demand)
    "network.engine": ("NetworkDeadlockError",),
    "network.fastengine": ("FastEngine",),
    "network.network": ("WormholeNetwork",),
    "network.message": ("Message",),
    # routing
    "routing.base": ("Candidate",),
    "routing.dor": ("DimensionOrder",),
    "routing.minimal_adaptive": ("MinimalAdaptive",),
    "routing.misrouting": ("MisroutingAdaptive",),
    "routing.duato": ("Duato",),
    "routing.turnmodel": ("NegativeFirst",),
    "routing.selection": ("FirstFree", "RandomFree"),
    # topology
    "topology.torus": ("torus",),
    "topology.graph": ("GraphTopology",),
    # faults
    "faults.model": ("CompositeFaultModel",),
    "faults.transient": ("TransientFaults",),
    "faults.permanent": (
        "ChannelFault", "PermanentFaultSchedule", "random_channel_faults",
    ),
    # traffic
    "traffic.patterns": (
        "Uniform", "Transpose", "Complement", "BitReversal", "Hotspot",
        "NearestNeighbour", "make_pattern",
    ),
    "traffic.lengths": ("FixedLength", "BimodalLength"),
    "traffic.loads": ("capacity_flits_per_node_cycle", "injection_rate"),
    "workload": ("BernoulliArrivals",),
    # statistics
    "stats.report": ("format_table",),
    "stats.trace": (
        "message_timeline", "format_timeline", "buffer_occupancy",
        "occupancy_snapshot", "channel_heatmap", "channel_load_stats",
    ),
    "stats.svg": ("render_network_svg",),
    # observability
    "obs": (
        "ListSink", "attach", "run_traced", "read_jsonl",
        "engine_metrics", "parse_prometheus_text",
    ),
    # verification
    "verify": ("InvariantViolation", "VerifyConfig", "verify_preset"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
