"""One-call traced runs: simulate with sinks attached, export artifacts.

:func:`run_traced` wraps :func:`repro.sim.simulator.run_simulation` with
the full observability stack -- an unbounded in-memory sink (for the
Perfetto exporter), an optional JSONL file sink, a ring buffer (so a
deadlock still yields forensics), and the interval sampler -- and
writes whichever artifacts were requested.  ``cr-sim trace`` is a thin
CLI shell over this function.

:func:`config_for_experiment` maps the experiment ids used throughout
EXPERIMENTS.md (plus the ``fault-matrix`` stress preset) to small
quick-scale configs, so ``cr-sim trace e08`` needs no flag soup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.backoff import ExponentialBackoff
from ..core.timeout import FixedTimeout
from ..sim.config import SimConfig
from ..sim.simulator import SimResult, run_simulation
from . import attach
from .events import Event
from .perfetto import write_chrome_trace
from .sinks import JsonlSink, ListSink, RingBufferSink

#: experiment id -> SimConfig overrides (quick-scale, a few k cycles).
#: e02 / e03 are points of their experiment's QUICK grid; the others
#: stay as tests/golden/traffic.json recorded them.
_EXPERIMENT_PRESETS: Dict[str, Dict[str, Any]] = {
    # Latency/throughput reference point: CR at moderate load.
    "e01": {"routing": "cr", "load": 0.3},
    # The timeout sweep at the paper's Fig. 11 timeout of 32 cycles.
    "e02": {"routing": "cr", "load": 0.2, "timeout": FixedTimeout(32)},
    # Fig. 11's dynamic backoff at the top load: kills and retries.
    "e03": {
        "routing": "cr", "load": 0.3, "timeout": FixedTimeout(32),
        "backoff": ExponentialBackoff(),
    },
    # FCR under transient flit corruption.
    "e07": {"routing": "fcr", "load": 0.2, "fault_rate": 1e-4},
    # FCR with dead channels and misrouting retries.
    "e08": {
        "routing": "fcr", "load": 0.2,
        "permanent_faults": 2, "misrouting": True,
    },
    # CR with the path-wide FKILL timeout armed.
    "e10": {"routing": "cr", "load": 0.3, "path_wide_cycles": 64},
    # Drop-at-block baseline (no kill wavefronts, only drops).
    "e19": {"routing": "drop", "load": 0.3},
    # Combined fault stress: transients + a dead channel + misrouting.
    "fault-matrix": {
        "routing": "fcr", "load": 0.2,
        "fault_rate": 1e-4, "permanent_faults": 1, "misrouting": True,
    },
}


def trace_experiments() -> List[str]:
    """The experiment ids :func:`config_for_experiment` understands."""
    return sorted(_EXPERIMENT_PRESETS)


def config_for_experiment(experiment: str, **overrides: Any) -> SimConfig:
    """A quick-scale :class:`SimConfig` for a known experiment id."""
    try:
        preset = _EXPERIMENT_PRESETS[experiment]
    except KeyError:
        known = ", ".join(trace_experiments())
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {known}"
        ) from None
    params = dict(
        radix=8, dims=2, warmup=300, measure=1500, drain=4000,
        message_length=16,
    )
    params.update(preset)
    params.update(overrides)
    return SimConfig(**params)


@dataclass
class TracedRun:
    """A simulation result plus everything the tracer captured."""

    result: SimResult
    events: List[Event] = field(default_factory=list)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    jsonl_path: Optional[str] = None
    perfetto_path: Optional[str] = None
    perfetto_entries: int = 0
    #: the armed EngineProfiler (None unless ``profile`` was requested);
    #: its summary is also in ``report["profile"]``.
    profiler: Optional[Any] = None

    @property
    def report(self) -> Dict[str, object]:
        return self.result.report

    def counts(self) -> Dict[str, int]:
        """How many events of each type the run produced."""
        out: Dict[str, int] = {}
        for event in self.events:
            name = type(event).__name__
            out[name] = out.get(name, 0) + 1
        return out


def run_traced(
    config: SimConfig,
    jsonl_path: Optional[str] = None,
    perfetto_path: Optional[str] = None,
    ring_capacity: int = 4096,
    sample_interval: Optional[int] = None,
    keep_engine: bool = False,
    extra_sinks: Optional[List[Any]] = None,
    profile: Union[bool, int] = False,
) -> TracedRun:
    """Run one simulation with the observability stack attached.

    The in-memory :class:`ListSink` and :class:`RingBufferSink` are
    always installed (the former feeds the Perfetto exporter, the
    latter feeds deadlock forensics); the JSONL sink only when a path
    is given.  ``sample_interval`` overrides ``config.sample_interval``
    when set.

    ``profile`` arms the engine self-profiler; ``True`` defaults the
    snapshot interval to 100 cycles (an int sets it directly) so the
    Perfetto export gains a per-phase wall-time counter track.
    """
    collector = ListSink()
    ring = RingBufferSink(capacity=ring_capacity)
    jsonl = JsonlSink(jsonl_path) if jsonl_path else None
    if sample_interval is not None:
        config = config.with_(sample_interval=sample_interval)
    if profile:
        config = config.with_(profile=100 if profile is True else profile)

    captured: Dict[str, Any] = {}

    def setup(engine: Any) -> None:
        sinks = [collector, ring]
        if jsonl is not None:
            sinks.append(jsonl)
        sinks.extend(extra_sinks or [])
        attach(engine, *sinks)
        captured["profiler"] = engine.profiler

    try:
        result = run_simulation(config, keep_engine=keep_engine, setup=setup)
    finally:
        if jsonl is not None:
            jsonl.close()

    profiler = captured.get("profiler")
    entries = 0
    if perfetto_path:
        extra = (profiler.counter_track_events()
                 if profiler is not None else ())
        entries = write_chrome_trace(
            collector.events, perfetto_path, extra_entries=extra
        )
    return TracedRun(
        result=result,
        events=collector.events,
        samples=list(result.report.get("timeseries", []) or []),
        jsonl_path=jsonl.path if jsonl is not None else None,
        perfetto_path=perfetto_path if perfetto_path else None,
        perfetto_entries=entries,
        profiler=profiler,
    )
