"""Trace-driven traffic: record a workload once, replay it anywhere.

With open-loop Bernoulli generation the *offered* traffic becomes
scheme-dependent as soon as a node queue fills (blocked sources stop
offering), which muddies A/B comparisons near saturation.  The
trace-driven alternative fixes the workload first:

    trace = record_trace(SimConfig(...))          # or build by hand
    result_cr  = run_simulation(cfg_cr.with_(trace=trace))
    result_dor = run_simulation(cfg_dor.with_(trace=trace))

Both runs then see byte-identical message arrivals (same cycle, source,
destination, length), so every difference in the results is the
scheme's.  Arrivals that cannot be queued on their cycle (queue full)
are retried every cycle until admitted, preserving workload totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..workload.spec import build_workload


@dataclass(frozen=True)
class TraceEntry:
    """One message arrival: (cycle, src, dst, payload flits)."""

    cycle: int
    src: int
    dst: int
    length: int


class Trace:
    """An ordered workload of message arrivals."""

    def __init__(self, entries: Iterable[TraceEntry]) -> None:
        self.entries: List[TraceEntry] = sorted(
            entries, key=lambda e: e.cycle
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def total_payload_flits(self) -> int:
        return sum(entry.length for entry in self.entries)

    def as_tuples(self) -> List[Tuple[int, int, int, int]]:
        return [
            (e.cycle, e.src, e.dst, e.length) for e in self.entries
        ]

    @classmethod
    def from_tuples(
        cls, tuples: Iterable[Tuple[int, int, int, int]]
    ) -> "Trace":
        return cls(TraceEntry(*t) for t in tuples)


def record_trace(config) -> Trace:
    """Generate the workload a config's generator *would* offer.

    Runs only the default (Bernoulli) traffic source -- no network, no
    ``Message`` -- for the config's generation window, capturing every
    arrival, including those a live run might have dropped at a full
    queue, so the recorded trace is the pure offered load.
    """
    if config.trace is not None:
        raise ValueError(
            "record_trace: config.trace is already set; there is "
            "nothing to record"
        )
    if config.workload not in (None, "bernoulli"):
        raise ValueError(
            f"record_trace: config.workload={config.workload!r} is not "
            "recorded, only the default Bernoulli source is"
        )
    topology = config.make_topology()
    (source,) = build_workload(config, topology).sources
    return Trace(
        TraceEntry(cycle, src, dst, length)
        for cycle in range(config.warmup + config.measure)
        for src, dst, length in source.offers(topology, cycle)
    )
