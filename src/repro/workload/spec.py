"""Workload specifications: strings/dicts -> WorkloadGenerator.

``SimConfig(workload=...)`` (and ``cr-sim ... --workload``, and campaign
grid axes) accept a compact spec in three equivalent forms:

* a string — ``"mmpp"``, ``"pareto:alpha=1.4"``,
  ``"incast:period=64,fanin=8"``, ``"client-server:servers=4,service=8"``,
  ``"phased"``, ``"trace:results/workload.jsonl"``;
* a dict — ``{"kind": "mmpp", "mean_on": 16}`` (what a JSON campaign
  spec carries);
* a :class:`WorkloadSpec` instance.

The spec's ``kind`` selects a builder; every builder receives the
surrounding config's pattern, length distribution, derived per-node
message rate, seed, and generation window, so workload specs compose
with the existing ``pattern``/``load``/``message_length`` fields instead
of replacing them.

Kinds
-----
``bernoulli``/``geometric``/``poisson``/``pareto``/``mmpp``
    One open-loop source with that arrival process.  ``bernoulli`` is
    the default (``workload`` unset builds exactly this).
``incast``
    Periodic N-to-1 bursts: every ``period`` cycles, ``fanin`` distinct
    clients each fire one message at a sink (rotating through
    ``sinks``).  Defaults size the burst so the mean offered rate
    matches the config's ``load``.
``client-server``
    Semi-open loop: clients issue requests to ``servers`` server nodes
    under an open-loop ``process`` (at half the configured rate — the
    replies are the other half); delivery of a request schedules a
    reply after ``service`` cycles (see
    :class:`~repro.workload.generator.RequestReply`).
``phased``
    ``warmup -> burst -> collective``, driven off the engine clock: a
    gentle uniform phase, an MMPP burst phase, then periodic
    all-to-all collective exchanges over the configured pattern.
``trace``
    Replays ``(cycle, src, dst, length)`` JSONL records (see
    :func:`load_workload_trace` / :func:`save_workload_trace`) — or
    inline ``entries`` — as scheduled arrivals.  :func:`record_trace`
    captures the arrivals a config offers, so every scheme replaying
    them sees byte-identical traffic::

        entries = record_trace(config)
        replay = {"kind": "trace", "entries": entries}
        run_simulation(cfg_cr.with_(workload=replay))
        run_simulation(cfg_dor.with_(workload=replay))
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Tuple

from ..traffic.lengths import LengthDistribution
from ..traffic.loads import injection_rate
from ..traffic.patterns import Incast, TrafficPattern, make_pattern
from .arrivals import ARRIVAL_KINDS, MMPPArrivals, make_arrivals
from .generator import (
    OpenLoopSource,
    RequestReply,
    ScheduledArrival,
    WorkloadGenerator,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.config import SimConfig
    from ..topology.base import Topology

_OPEN_LOOP_KINDS = tuple(sorted(ARRIVAL_KINDS))
WORKLOAD_KINDS: Tuple[str, ...] = _OPEN_LOOP_KINDS + (
    "incast", "client-server", "phased", "trace",
)


def _coerce(text: str) -> Any:
    """Parse a spec parameter value: int, float, or bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class WorkloadSpec:
    """A parsed workload description: kind + keyword parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {sorted(WORKLOAD_KINDS)}"
            )

    @classmethod
    def parse(cls, value: Any) -> "WorkloadSpec":
        """Coerce a string / dict / WorkloadSpec into a WorkloadSpec."""
        if isinstance(value, WorkloadSpec):
            return value
        if isinstance(value, dict):
            data = dict(value)
            try:
                kind = data.pop("kind")
            except KeyError:
                raise ValueError(
                    "workload dict needs a 'kind' key"
                ) from None
            return cls(kind=kind, params=data)
        if isinstance(value, str):
            kind, _, args = value.partition(":")
            if kind == "trace":
                # The argument is a path (may contain ':' on Windows
                # or '=' in odd filenames; take it verbatim).
                return cls(kind="trace", params={"path": args})
            params: Dict[str, Any] = {}
            if args:
                for item in args.split(","):
                    if not item.strip():
                        continue
                    key, sep, text = item.partition("=")
                    if not sep:
                        raise ValueError(
                            f"workload parameter {item!r} is not "
                            f"'key=value'"
                        )
                    params[key.strip()] = _coerce(text.strip())
            return cls(kind=kind, params=params)
        raise TypeError(
            f"workload must be a string, dict, or WorkloadSpec "
            f"(got {type(value).__name__})"
        )


def build_workload(config: "SimConfig",
                   topology: "Topology") -> WorkloadGenerator:
    """Construct the generator ``config`` describes.

    The only generator constructor: ``workload=None`` is
    ``"bernoulli"``.  Every parameter is validated here, before an
    engine exists.
    """
    spec = WorkloadSpec.parse(
        "bernoulli" if config.workload is None else config.workload
    )
    lengths = config.make_lengths()
    rate = min(injection_rate(topology, config.load, lengths.mean()), 1.0)
    pattern = make_pattern(config.pattern, **config.pattern_kwargs)
    stop = config.warmup + config.measure
    seed = config.seed + 1  # the traffic stream's namespace
    params = dict(spec.params)
    if spec.kind in ARRIVAL_KINDS:
        return _build_open_loop(
            spec.kind, params, topology, pattern, lengths, rate, seed,
            stop,
        )
    if spec.kind == "incast":
        return _build_incast(
            params, topology, lengths, rate, seed, stop
        )
    if spec.kind == "client-server":
        return _build_client_server(
            params, topology, lengths, rate, seed, stop
        )
    if spec.kind == "phased":
        return _build_phased(
            params, topology, pattern, lengths, rate, seed, stop
        )
    assert spec.kind == "trace"
    return _build_trace(params, topology, seed)


# -- builders -----------------------------------------------------------


def _build_open_loop(kind, params, topology, pattern, lengths, rate,
                     seed, stop) -> WorkloadGenerator:
    process = make_arrivals(kind, rate, **params)
    source = OpenLoopSource(process, pattern, lengths, start=0, stop=stop)
    return WorkloadGenerator(topology, sources=[source], seed=seed)


def _pick_sinks(params, topology) -> List[int]:
    sinks = params.pop("sinks", None)
    if sinks is None:
        count = int(params.pop("num_sinks", 1))
        step = max(1, topology.num_nodes // max(1, count))
        return [(i * step) % topology.num_nodes for i in range(count)]
    if isinstance(sinks, int):
        return [sinks]
    if isinstance(sinks, str):
        return [int(s) for s in sinks.split("+") if s.strip()]
    return [int(s) for s in sinks]


def incast_bursts(
    topology: "Topology",
    lengths: LengthDistribution,
    rate: float,
    seed,
    start: int,
    stop: int,
    period: int,
    fanin: int,
    sinks: Iterable[int],
    request: bool = False,
) -> List[ScheduledArrival]:
    """Precompute periodic N-to-1 bursts as scheduled arrivals.

    Every ``period`` cycles ``fanin`` distinct clients (drawn from a
    deterministic RNG) each send one message to the burst's sink;
    bursts rotate through ``sinks``.  All entries are known up front,
    so the whole workload is wake events for the fast engine.
    """
    sinks = list(sinks)
    rng = random.Random(f"{seed}:incast")
    clients = [n for n in range(topology.num_nodes) if n not in set(sinks)]
    fanin = max(1, min(fanin, len(clients)))
    entries: List[ScheduledArrival] = []
    for index, cycle in enumerate(range(start, stop, period)):
        sink = sinks[index % len(sinks)]
        for src in rng.sample(clients, fanin):
            entries.append(ScheduledArrival(
                cycle, src, sink, lengths.sample(rng), request=request,
            ))
    return entries


def _build_incast(params, topology, lengths, rate, seed,
                  stop) -> WorkloadGenerator:
    sinks = _pick_sinks(params, topology)
    period = int(params.pop("period", 64))
    if period < 1:
        raise ValueError("incast period must be >= 1")
    # Default burst size targets the configured offered load.
    default_fanin = max(1, round(rate * topology.num_nodes * period))
    fanin = int(params.pop("fanin", default_fanin))
    start = int(params.pop("start", 0))
    if params:
        raise ValueError(f"unknown incast parameters {sorted(params)}")
    entries = incast_bursts(
        topology, lengths, rate, seed, start, stop, period, fanin, sinks,
    )
    return WorkloadGenerator(topology, scheduled=entries, seed=seed)


def _build_client_server(params, topology, lengths, rate, seed,
                         stop) -> WorkloadGenerator:
    num_servers = int(params.pop("servers", max(1, topology.num_nodes // 16)))
    service = int(params.pop("service", 8))
    process_kind = params.pop("process", "bernoulli")
    servers = _pick_sinks({"num_sinks": num_servers}, topology)
    # Requests run at half the configured rate; replies (one per
    # delivered request) supply the other half, keeping total offered
    # load near the config's ``load``.
    process = make_arrivals(process_kind, rate / 2.0, **params)
    source = OpenLoopSource(
        process,
        Incast(sinks=servers),
        lengths,
        start=0,
        stop=stop,
        track_requests=True,
    )
    reply = RequestReply(
        servers, lengths, service_time=service, seed=seed,
    )
    return WorkloadGenerator(
        topology, sources=[source], request_reply=reply, seed=seed,
    )


def _build_phased(params, topology, pattern, lengths, rate, seed,
                  stop) -> WorkloadGenerator:
    """warmup -> burst -> collective, windows split over [0, stop)."""
    warmup_frac = float(params.pop("warmup_frac", 1 / 3))
    burst_frac = float(params.pop("burst_frac", 1 / 3))
    interval = int(params.pop("collective_interval", 48))
    mean_on = float(params.pop("mean_on", 24.0))
    mean_off = float(params.pop("mean_off", 72.0))
    if params:
        raise ValueError(f"unknown phased parameters {sorted(params)}")
    t1 = int(stop * warmup_frac)
    t2 = t1 + int(stop * burst_frac)
    sources = [
        # Phase 1: gentle warmup at reduced uniform load.
        OpenLoopSource(
            make_arrivals("geometric", rate * 0.5),
            pattern, lengths, start=0, stop=t1,
        ),
        # Phase 2: bursty on/off sources at the full configured rate.
        OpenLoopSource(
            MMPPArrivals(rate, mean_on=mean_on, mean_off=mean_off),
            pattern, lengths, start=t1, stop=t2,
        ),
    ]
    # Phase 3: periodic collective exchanges — every node sends one
    # message to its pattern partner, all on the same cycle.
    rng = random.Random(f"{seed}:collective")
    entries: List[ScheduledArrival] = []
    for cycle in range(t2, stop, interval):
        for src in range(topology.num_nodes):
            dst = pattern.destination(topology, src, rng)
            if dst is None or dst == src:
                continue
            entries.append(ScheduledArrival(
                cycle, src, dst, lengths.sample(rng)
            ))
    return WorkloadGenerator(
        topology, sources=sources, scheduled=entries, seed=seed,
    )


def _build_trace(params, topology, seed) -> WorkloadGenerator:
    entries = params.pop("entries", None)
    path = params.pop("path", "")
    if params:
        raise ValueError(f"unknown trace parameters {sorted(params)}")
    if entries is None:
        if not path:
            raise ValueError(
                "trace workload needs a JSONL path "
                "('trace:<path>') or inline 'entries'"
            )
        arrivals = load_workload_trace(path)
    else:
        arrivals = [
            entry if isinstance(entry, ScheduledArrival)
            else ScheduledArrival(*entry)
            for entry in entries
        ]
    return WorkloadGenerator(topology, scheduled=arrivals, seed=seed)


# -- JSONL workload traces ----------------------------------------------


def load_workload_trace(path: str) -> List[ScheduledArrival]:
    """Read a ``(cycle, src, dst, length)`` JSONL workload trace."""
    from ..obs.sinks import read_jsonl

    entries: List[ScheduledArrival] = []
    for record in read_jsonl(path):
        entries.append(ScheduledArrival(
            cycle=int(record["cycle"]),
            src=int(record["src"]),
            dst=int(record["dst"]),
            length=int(record["length"]),
        ))
    return entries


def save_workload_trace(entries, path: str) -> int:
    """Write arrivals (ScheduledArrival / tuples) as JSONL."""
    import os

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            if not isinstance(entry, ScheduledArrival):
                entry = ScheduledArrival(*entry)
            handle.write(json.dumps({
                "cycle": entry.cycle, "src": entry.src, "dst": entry.dst,
                "length": entry.length,
            }) + "\n")
            count += 1
    return count


def record_trace(config: "SimConfig") -> List[ScheduledArrival]:
    """The arrivals ``config``'s default (Bernoulli) source offers.

    Runs only the traffic source -- no network, no ``Message`` -- for
    the config's generation window, capturing every arrival, including
    those a live run might have dropped at a full queue, so the result
    is the pure offered load.  Replay it with
    ``workload={"kind": "trace", "entries": ...}``.
    """
    if config.workload not in (None, "bernoulli"):
        raise ValueError(
            f"record_trace: config.workload={config.workload!r} is not "
            "recorded, only the default Bernoulli source is"
        )
    topology = config.make_topology()
    (source,) = build_workload(config, topology).sources
    return [
        ScheduledArrival(cycle, src, dst, length)
        for cycle in range(config.warmup + config.measure)
        for src, dst, length in source.offers(topology, cycle)
    ]
