"""Observability overhead: the untraced hot path must stay free.

Every emission site in the engine/injector/kill-manager/receiver is
guarded by ``if engine.bus is not None``, so a run with no sinks
attached pays one attribute load and an ``is None`` test per potential
emission.  This benchmark bounds that cost on an e01-style run (CR,
8-ary 2-torus, moderate load, ``CYCLES`` cycles):

1. a traced run captures the *actual* event stream the run emits;
2. the plain run (``bus is None`` -- what every sweep, campaign, and
   benchmark in this repo executes) is timed min-of-N;
3. the full instrumentation work for that event volume -- constructing
   every captured event and fanning it out through a zero-sink
   :class:`~repro.obs.events.EventBus` -- is timed in isolation.

The isolated cost must stay under ``OVERHEAD_BUDGET`` of the plain
run's wall time.  The armed-but-sinkless run does exactly this much
extra work, and the no-sink run strictly less (guard checks only), so
the < 3% acceptance bound on the untraced path follows a fortiori.
The two end-to-end runs are *not* compared directly: their difference
sits at the machine's noise floor, which is the point of the guard
discipline.

A budget is a share of the plain run and the event stream is the same
on either engine (~6.7 ms to construct and emit), so each engine is
gated against its own: 3 % of a reference run (measured ~1 %), 8 % of
a fast-engine run (2.5-3x shorter; measured ~4 %).
"""

import dataclasses
import time

import pytest
from overhead_log import record_overhead

from repro import SimConfig
from repro.obs import attach
from repro.obs.events import EventBus
from repro.obs.sinks import ListSink

CYCLES = 800
PLAIN_ROUNDS = 3
EMIT_ROUNDS = 5
#: maximum tolerated instrumentation cost, as a share of that engine's
#: plain run.
OVERHEAD_BUDGET = {"reference": 0.03, "fast": 0.08}


def _config(engine):
    return SimConfig(
        radix=8, dims=2, routing="cr", load=0.3, message_length=16,
        warmup=0, measure=CYCLES, seed=99, engine=engine,
    )


def _traced_event_stream(engine_name):
    engine = _config(engine_name).build()
    sink = ListSink()
    attach(engine, sink)
    engine.run(CYCLES)
    return sink.events, engine


def _timed_plain_run(engine_name):
    engine = _config(engine_name).build()
    assert engine.bus is None  # the default: untraced
    start = time.perf_counter()
    engine.run(CYCLES)
    return time.perf_counter() - start, engine


@pytest.mark.parametrize("engine_name", sorted(OVERHEAD_BUDGET))
def test_no_sink_overhead_under_budget(benchmark, engine_name):
    budget = OVERHEAD_BUDGET[engine_name]
    events, traced_engine = _traced_event_stream(engine_name)
    assert len(events) > 1000, "reference run emitted too few events"
    assert (traced_engine.stats.counters["messages_delivered"]
            == sum(1 for e in events
                   if type(e).__name__ == "MessageDelivered"))

    plain_times = []
    delivered = 0
    for _ in range(PLAIN_ROUNDS):
        elapsed, engine = _timed_plain_run(engine_name)
        plain_times.append(elapsed)
        delivered = engine.stats.counters["messages_delivered"]
    assert delivered > 100  # the run actually simulated traffic

    # Replay the exact event mix: same types, same field values, same
    # volume -- everything an armed-but-sinkless run does on top of the
    # plain run, measured without the simulation noise around it.
    pairs = [(type(event), dataclasses.asdict(event))
             for event in events]
    bus = EventBus()
    emit_times = []
    for _ in range(EMIT_ROUNDS):
        start = time.perf_counter()
        for cls, kwargs in pairs:
            bus.emit(cls(**kwargs))
        emit_times.append(time.perf_counter() - start)

    # Report the plain path in the benchmark table.
    benchmark.pedantic(_timed_plain_run, args=(engine_name,),
                       rounds=1, iterations=1)

    plain, emit = min(plain_times), min(emit_times)
    overhead = emit / plain
    print(f"\nobs overhead ({engine_name}): "
          f"plain run {plain * 1000:.1f}ms, "
          f"construct+emit {len(pairs)} events {emit * 1000:.2f}ms "
          f"({overhead * 100:.2f}%)")
    record_overhead(
        f"obs.{engine_name}", overhead, budget,
        detail={
            "plain_ms": round(plain * 1000, 3),
            "emit_ms": round(emit * 1000, 3),
            "events": len(pairs),
        },
    )
    assert overhead < budget, (
        f"instrumentation cost {overhead:.1%} of a {engine_name}-engine "
        f"run's wall time exceeds the {budget:.0%} budget for the "
        f"no-sink path"
    )
