"""Declarative simulation configuration.

``SimConfig`` is the single entry point users and experiments go
through: it names a topology, a routing scheme (which implies the
interface protocol: ``cr``/``fcr`` run the CR state machines, the
baselines run classic blocking wormhole), the resource provisioning
(VCs, buffer depth, interface channels), the workload, and the run
phases.  ``build()`` turns it into a live engine.

A config is a value: every field is data (``serve`` alone may carry a
live server), and ``build()`` makes every stateful model afresh, so
one config runs the same wherever and however often it runs, and it
hashes.  A hand-written model goes to the engine constructor instead
(``ReferenceEngine(network, fault_model=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

from ..core.backoff import RetransmitPolicy
from ..core.padding import PaddingParams
from ..core.protocol import ProtocolConfig, ProtocolMode
from ..core.timeout import PathWideTimeout, TimeoutPolicy
from ..faults.model import CompositeFaultModel, FaultModel
from ..faults.permanent import PermanentFaultSchedule, channel_faults
from ..faults.transient import TransientFaults
from ..network.engine import Engine
from ..network.fastengine import FastEngine
from ..network.network import WormholeNetwork
from ..routing.base import RoutingFunction
from ..routing.dor import DimensionOrder
from ..routing.duato import Duato
from ..routing.minimal_adaptive import MinimalAdaptive, NaiveAdaptive
from ..routing.misrouting import MisroutingAdaptive
from ..routing.turnmodel import NegativeFirst
from ..stats.collector import StatsCollector
from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.torus import KAryNCube
from ..traffic.lengths import FixedLength, LengthDistribution
from ..workload.spec import build_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.invariants import VerifyConfig

#: sampler cadence auto-selected when alerts/serve are armed without an
#: explicit sample_interval (cycles per window).
DEFAULT_SAMPLE_INTERVAL = 200

#: routing scheme -> (routing function class, interface protocol)
SCHEMES = {
    "cr": (MinimalAdaptive, ProtocolMode.CR),
    "fcr": (MinimalAdaptive, ProtocolMode.FCR),
    "dor": (DimensionOrder, ProtocolMode.PLAIN),
    "duato": (Duato, ProtocolMode.PLAIN),
    "turn": (NegativeFirst, ProtocolMode.PLAIN),
    "naive": (NaiveAdaptive, ProtocolMode.PLAIN),
    # CR interfaces over the deterministic relation (used by ablations:
    # recovery without adaptivity).
    "dor+cr": (DimensionOrder, ProtocolMode.CR),
    # Drop-at-block (BBN Butterfly lineage): adaptive routing, plain
    # unpadded injection, routers reject blocked headers (E19 baseline).
    "drop": (MinimalAdaptive, ProtocolMode.PLAIN),
    # Pipelined circuit switching with backtracking probes (E20
    # baseline, Gaughan & Yalamanchili).
    "pcs": (MinimalAdaptive, ProtocolMode.PCS),
}


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    # --- network shape -------------------------------------------------
    topology: str = "torus"  # torus | mesh | hypercube
    radix: int = 8
    dims: int = 2
    # --- routing scheme and resources ----------------------------------
    routing: str = "cr"
    num_vcs: Optional[int] = None  # default: the scheme's minimum
    buffer_depth: int = 2
    channel_latency: int = 1
    num_inject: int = 1
    num_sink: int = 1
    eject_slots: int = 2
    # --- protocol ------------------------------------------------------
    timeout: Optional[TimeoutPolicy] = None
    backoff: Optional[RetransmitPolicy] = None
    order_preserving: bool = True
    retry_limit: Optional[int] = None
    path_wide_cycles: Optional[int] = None
    # Bounded non-minimal hops on retries (permanent-fault tolerance).
    misrouting: bool = False
    # Router-side drop threshold for the "drop" scheme (cycles a header
    # may block before the router rejects the message).
    drop_at_block_cycles: Optional[int] = None
    # PCS: probe patience before backtracking.
    pcs_wait: int = 4
    # Software ack/retry reliability layer over a PLAIN network (the
    # baseline FCR replaces; see core/swretry.py and experiment E18).
    software_retry: bool = False
    swr_timeout: int = 512
    swr_ack_length: int = 2
    swr_retry_limit: Optional[int] = 16
    # --- workload ------------------------------------------------------
    pattern: str = "uniform"
    pattern_kwargs: Dict[str, Any] = field(default_factory=dict)
    # Payload flits: an int, or a LengthDistribution (e.g. BimodalLength).
    message_length: Union[int, LengthDistribution] = 16
    load: float = 0.5  # fraction of theoretical capacity
    # Production workload spec (repro.workload): a kind string
    # ("mmpp", "pareto:alpha=1.4", "incast:period=64", "client-server",
    # "phased", "trace:<path>"), a dict ({"kind": ...}; trace replay of
    # recorded arrivals is {"kind": "trace", "entries": record_trace(c)}),
    # or a WorkloadSpec.  None is "bernoulli", the paper's open-loop
    # source (the two spellings keep distinct config hashes).
    workload: Optional[Any] = None
    # --- faults (each kind composes with the others) --------------------
    # Probability that one flit crossing one link is corrupted.
    fault_rate: float = 0.0
    # Dead links: a count of random bidirectional links killed at cycle
    # 0, or a list of (cycle, src, dst) placements, each killing the
    # src->dst channel at that cycle.
    permanent_faults: Union[int, Sequence[Sequence[int]]] = 0
    # Load-dependent cascading faults (repro.faults.cascading): True for
    # defaults, or a dict / "k=v,..." string of LoadDependentFaults
    # parameters.
    cascade_faults: Union[None, bool, str, Dict[str, Any]] = None
    # --- run phases ----------------------------------------------------
    warmup: int = 1000
    measure: int = 4000
    drain: int = 4000
    seed: int = 42
    queue_cap: int = 64
    watchdog: int = 20000
    # --- engine implementation -----------------------------------------
    # "fast" runs repro.network.fastengine.FastEngine (batched credits,
    # memoised routing relations, event skipping); "reference" runs the
    # plain per-cycle Engine, the spec the fast one is checked against
    # -- flit-for-flit identical output.  build() hands the reference
    # engine what only it runs (PCS, software_retry, a verify mutation)
    # whatever this says.
    engine: str = "fast"
    # --- observability -------------------------------------------------
    # When set, build() attaches a repro.obs.sampler.IntervalSampler
    # collecting time-series metrics every N cycles; run_simulation()
    # then reports them under "timeseries".
    sample_interval: Optional[int] = None
    # Alert rules engine (repro.obs.alerts): True for the built-in
    # rules, a path to a JSON rules file, or a rules list/dict.
    # Evaluated at sampler boundaries (a sampler is
    # auto-attached at DEFAULT_SAMPLE_INTERVAL when none is configured);
    # run_simulation() then reports firing episodes under "alerts".
    alerts: Optional[Any] = None
    # Live telemetry server (repro.obs.server): True for loopback on an
    # ephemeral port, a port, "[HOST:]PORT", or a TelemetryServer.
    # Serves /metrics; republished at every sampler
    # boundary (a sampler is auto-attached as for alerts).
    serve: Optional[Any] = None
    # --- verification --------------------------------------------------
    # True (or a repro.verify.VerifyConfig) arms the runtime invariant
    # checker; run_simulation() then reports its counters under
    # "verify" and raises InvariantViolation on a broken invariant.
    verify: Union[None, bool, "VerifyConfig"] = None
    # --- profiling -----------------------------------------------------
    # True arms the engine self-profiler (phase-scoped wall timers; see
    # repro.obs.profile); run_simulation() then reports the per-phase
    # summary under "profile".  An int > 1 additionally takes periodic
    # per-phase snapshots every N cycles for the Perfetto counter track.
    profile: Union[bool, int] = False

    # ------------------------------------------------------------------

    def with_(self, **overrides) -> "SimConfig":
        """A copy with fields replaced (sweep helper)."""
        return replace(self, **overrides)

    def make_topology(self) -> Topology:
        if self.topology == "torus":
            return KAryNCube(self.radix, self.dims, wrap=True)
        if self.topology == "mesh":
            return KAryNCube(self.radix, self.dims, wrap=False)
        if self.topology == "hypercube":
            return Hypercube(self.dims)
        raise ValueError(f"unknown topology {self.topology!r}")

    def make_routing(self, topology: Topology) -> Tuple[RoutingFunction, ProtocolMode]:
        try:
            routing_cls, mode = SCHEMES[self.routing]
        except KeyError:
            raise ValueError(
                f"unknown routing scheme {self.routing!r}; "
                f"choose from {sorted(SCHEMES)}"
            ) from None
        if self.misrouting:
            if routing_cls is not MinimalAdaptive or self.routing == "drop":
                raise ValueError(
                    "misrouting is only supported with the cr/fcr/pcs "
                    "schemes"
                )
            routing_cls = MisroutingAdaptive
        if self.routing == "dor+cr":
            # Recovery-only ablation: CR interfaces supply the deadlock
            # freedom, so the deterministic relation runs without its
            # dateline virtual channels.
            return DimensionOrder(topology, dateline=False), mode
        return routing_cls(topology), mode

    def resolved_num_vcs(self, routing: RoutingFunction) -> int:
        return self.num_vcs if self.num_vcs is not None else routing.min_vcs()

    def make_lengths(self) -> LengthDistribution:
        if isinstance(self.message_length, LengthDistribution):
            return self.message_length
        return FixedLength(self.message_length)

    def build(self) -> Engine:
        """Construct the engine (network, protocol, traffic, faults)."""
        if self.engine not in ("reference", "fast"):
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                "choose 'reference' or 'fast'"
            )
        for phase in ("warmup", "measure", "drain"):
            if getattr(self, phase) < 0:
                raise ValueError(
                    f"{phase} must be >= 0 cycles, "
                    f"got {getattr(self, phase)}"
                )
        topology = self.make_topology()
        routing, mode = self.make_routing(topology)
        verify_config = None
        if self.verify is not None and self.verify is not False:
            from ..verify import VerifyConfig

            verify_config = VerifyConfig.coerce(self.verify)
        # The one place an engine class is chosen.  PCS probe circuits,
        # the software ack/retry layer (the foils of E20 and E18) and
        # instance-patched methods (a planted mutation) are the
        # reference engine's alone; everything else honours ``engine``.
        # The spec is imported only by a configuration that runs on it.
        if self.engine == "fast" and not (
            mode is ProtocolMode.PCS
            or self.software_retry
            or getattr(verify_config, "mutation", None) is not None
        ):
            engine_cls = FastEngine
        else:
            from ..verify.reference import ReferenceEngine as engine_cls
        num_vcs = self.resolved_num_vcs(routing)
        network = WormholeNetwork(
            topology,
            routing,
            num_vcs=num_vcs,
            buffer_depth=self.buffer_depth,
            channel_latency=self.channel_latency,
            num_inject=self.num_inject,
            num_sink=self.num_sink,
            eject_slots=self.eject_slots,
        )
        drop_cycles = self.drop_at_block_cycles
        if self.routing == "drop" and drop_cycles is None:
            drop_cycles = 2
        protocol = ProtocolConfig(
            mode=mode,
            timeout=self.timeout,
            backoff=self.backoff,
            drop_at_block=drop_cycles,
            pcs_wait=self.pcs_wait,
            padding=PaddingParams(
                buffer_depth=self.buffer_depth,
                channel_latency=self.channel_latency,
                eject_slots=self.eject_slots,
            ),
            order_preserving=self.order_preserving,
            retry_limit=self.retry_limit,
            path_wide=(
                PathWideTimeout(self.path_wide_cycles)
                if self.path_wide_cycles is not None
                else None
            ),
        )
        generator = build_workload(self, topology)
        stats = StatsCollector(
            topology.num_nodes,
            warmup_end=self.warmup,
            measure_end=self.warmup + self.measure,
        )
        faults = self._make_faults(network)
        if faults is not None:
            faults.bind_stats(stats)
        engine = engine_cls(
            network,
            protocol=protocol,
            seed=self.seed,
            stats=stats,
            fault_model=faults,
            generator=generator,
            watchdog=self.watchdog,
            queue_cap=self.queue_cap,
        )
        if generator.wants_delivery_hook:
            engine.delivery_listener = generator
        if self.software_retry:
            from ..core.swretry import SoftwareReliability

            SoftwareReliability(
                retry_timeout=self.swr_timeout,
                ack_length=self.swr_ack_length,
                retry_limit=self.swr_retry_limit,
            ).attach(engine)
        wants_boundaries = (
            (self.alerts is not None and self.alerts is not False)
            or (self.serve is not None and self.serve is not False)
        )
        if self.sample_interval is not None or wants_boundaries:
            from ..obs.sampler import IntervalSampler

            # Alerts and telemetry evaluate on sampler boundaries, so
            # arming either without an explicit sample_interval attaches
            # a sampler at the default cadence.
            engine.sampler = IntervalSampler(
                engine,
                interval=(self.sample_interval
                          if self.sample_interval is not None
                          else DEFAULT_SAMPLE_INTERVAL),
            )
        if self.alerts is not None and self.alerts is not False:
            from ..obs.alerts import AlertEngine, load_rules

            engine.alerts = AlertEngine(load_rules(self.alerts))
            engine.sampler.listeners.append(engine.alerts)
        if self.serve is not None and self.serve is not False:
            from ..obs import open_telemetry
            from ..obs.server import EngineTelemetry

            engine.telemetry = EngineTelemetry(*open_telemetry(self.serve))
            engine.sampler.listeners.append(engine.telemetry)
            # Publish the cycle-0 state so scrapes work immediately.
            engine.telemetry.publish(engine)
        if verify_config is not None:
            from ..verify import InvariantChecker, apply_mutation

            engine.checker = InvariantChecker(engine, verify_config)
            if verify_config.mutation is not None:
                apply_mutation(engine, verify_config.mutation)
        if self.profile:
            from ..obs.profile import EngineProfiler

            snapshot = int(self.profile) if self.profile is not True else 0
            engine.profiler = EngineProfiler(
                snapshot_interval=snapshot if snapshot > 1 else 0
            )
        return engine

    def _make_faults(self, network: WormholeNetwork) -> Optional[FaultModel]:
        """The fault fields as one fresh model (a run uses it up), or
        None when they name no fault."""
        models = []
        if self.fault_rate != 0.0:
            models.append(TransientFaults(self.fault_rate))
        dead = channel_faults(network, self.permanent_faults, self.seed + 2)
        if dead:
            models.append(PermanentFaultSchedule(dead))
        if self.cascade_faults is not None:
            from ..faults.cascading import make_cascading

            models.append(
                make_cascading(self.cascade_faults, seed=self.seed + 3)
            )
        if len(models) > 1:
            return CompositeFaultModel(models)
        return models[0] if models else None
