"""Overhead gates: every opt-in layer stays within its budget.

Events, alerts, the engine profiler, the invariant checker and
campaign tracing are each off unless asked for, and each one's cost is
asserted here against :data:`BUDGETS`, keyed by ``(layer, engine)``.
A budget is a share of that engine's plain run: a layer costs about
the same absolute time on either engine, and a fast-engine run is
about 2.5x shorter, so the fast engine gets the looser share.  The
figures the project tracks over time are the ``BENCH_<n>.json`` ledger
rows (``obs.events_overhead``, ``obs.alerts_overhead``,
``profile.overhead``, ``verify.overhead``, ``trace.overhead``); this
module only gates.

Every measurement is an arm of an interleaved loop: each round times
every arm once, the order rotating by one every round, so each arm goes
first equally often and a drifting host loads all arms alike.  On each
engine one loop (:func:`e01_rounds`) serves the events, alerts,
profile and verify gates, so they share one set of plain e01 runs;
tracing has its own loop of plain campaign runs and its replay
(:func:`campaign_rounds`).  Two estimators read the loops:

* **paired** (profile, verify): the armed run is timed end to
  end.  The overhead is the median of the per-round armed-minus-plain
  differences over the median plain run; a difference of two per-side
  minima would be mostly host noise when the layer costs a few
  percent of a run.
* **replayed** (events, alerts, trace): the layer's whole extra work
  is timed in isolation -- every event the run emits, constructed and
  fanned out through a zero-sink :class:`~repro.obs.events.EventBus`;
  every sampler window the run produced, evaluated by a fresh
  :class:`~repro.obs.alerts.AlertEngine` with the built-in rules; every
  span a traced campaign journals, built, closed and journaled on a
  fresh :class:`~repro.obs.trace.Tracer` (:func:`trace_replay`) --
  and its min-of-N is taken over the plain run's min-of-N.  An armed
  run does exactly this much on top of the plain run, and a disarmed
  one strictly less (one ``is None`` guard per site), so the bound
  holds a fortiori; two end-to-end runs would differ by less than the
  host's noise.  The replays are arms of the loop, so both minima are
  drawn from the same stretch of host time.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_overhead.py -q``
(``-k verify``, ``-k "events or alerts"``, ... for some layers).
"""

import collections
import dataclasses
import functools
import os
import statistics
import tempfile
import time

import pytest

from repro import SimConfig, VerifyConfig
from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.obs import attach
from repro.obs.alerts import AlertEngine
from repro.obs.events import EventBus
from repro.obs.sinks import ListSink
from repro.obs.trace import Tracer

#: the largest tolerated cost of each layer, as a share of that
#: engine's plain run.
BUDGETS = {
    ("events", "reference"): 0.03,
    ("events", "fast"): 0.08,
    ("alerts", "fast"): 0.03,
    ("profile", "reference"): 0.05,
    ("profile", "fast"): 0.10,
    ("verify", "reference"): 0.10,
    ("verify", "fast"): 0.15,
    ("trace", "fast"): 0.03,
}

CYCLES = 800
SAMPLE_INTERVAL = 100
#: rounds of the e01 loop; a multiple of its five arms.  The paired
#: gates read a median of per-round differences, so more rounds are
#: what keeps host noise out of them.
E01_ROUNDS = 25
#: rounds of the campaign loop; a multiple of its two arms.
CAMPAIGN_ROUNDS = 10

CAMPAIGN = {
    "name": "trace-overhead",
    "description": "tracing overhead probe",
    "base": {
        "radix": 4,
        "warmup": 100,
        "measure": 600,
        "drain": 3000,
        "message_length": 8,
    },
    "axes": {
        "load": [0.1, 0.2, 0.3],
        "routing": ["cr", "dor"],
    },
}


def e01(engine_name, **layers):
    """The e01-style run every engine gate measures (CR, 8-ary
    2-torus, moderate load), with ``layers`` armed."""
    return SimConfig(
        radix=8, dims=2, routing="cr", load=0.3, message_length=16,
        warmup=0, measure=CYCLES, seed=99, engine=engine_name, **layers,
    )


def timed(action):
    """Wall seconds of one ``action()``."""
    start = time.perf_counter()
    action()
    return time.perf_counter() - start


def interleaved(arms, rounds):
    """Time every arm (name -> action returning wall seconds) once a
    round, the order rotating by one each round; name -> seconds in
    round order."""
    names = list(arms)
    times = {name: [] for name in names}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            times[name].append(arms[name]())
    return times


def paired(times, arm):
    """The paired estimator: ``(overhead, plain s, extra s)`` from the
    median of ``arm``'s per-round differences over the median plain
    run."""
    plain = statistics.median(times["plain"])
    extra = statistics.median(
        armed - alone for armed, alone in zip(times[arm], times["plain"]))
    return max(extra, 0.0) / plain, plain, extra


def replayed(times, arm):
    """The replay estimator: ``(overhead, plain s, extra s)`` from the
    min-of-N of ``arm`` over the plain run's min-of-N."""
    plain, extra = min(times["plain"]), min(times[arm])
    return extra / plain, plain, extra


def events_replay(engine_name):
    """The events layer's work on top of a plain run: construct every
    event a traced run emitted (same types, same field values, same
    volume) and emit it into a bus with no sink."""
    engine = e01(engine_name).build()
    sink = ListSink()
    attach(engine, sink)
    engine.run(CYCLES)
    assert len(sink.events) > 1000, "the run emitted too few events"
    assert (engine.stats.counters["messages_delivered"]
            == sum(1 for e in sink.events
                   if type(e).__name__ == "MessageDelivered"))
    pairs = [(type(event), dataclasses.asdict(event))
             for event in sink.events]
    bus = EventBus()

    def replay():
        for cls, kwargs in pairs:
            bus.emit(cls(**kwargs))

    return replay


def alerts_replay(engine_name):
    """The alerts layer's work on top of a sampled run: a fresh engine
    with the built-in rules evaluates every window an armed run
    produced, context build (counter deltas, health) included."""
    engine = e01(engine_name, sample_interval=SAMPLE_INTERVAL,
                 alerts=True).build()
    engine.run(CYCLES)
    engine.sampler.finalize(engine.now)
    assert engine.alerts.evaluations > 0, "the armed run evaluated nothing"
    samples = engine.sampler.samples
    assert len(samples) >= CYCLES // SAMPLE_INTERVAL

    def replay():
        alerts = AlertEngine()
        for sample in samples:
            alerts.on_sample(engine, sample)
        assert alerts.evaluations == len(samples)

    return replay


@functools.lru_cache(maxsize=None)
def e01_rounds(engine_name):
    """The loop on one engine: plain, profiled and verified e01 runs,
    and the events and alerts replays; name -> seconds."""
    configs = {
        "plain": e01(engine_name),
        "profile": e01(engine_name, profile=True),
        "verify": e01(engine_name, verify=VerifyConfig()),
    }
    last = {}

    def run(name):
        engine = last[name] = configs[name].build()
        return timed(lambda: engine.run(CYCLES))

    arms = {name: functools.partial(run, name) for name in configs}
    arms["events"] = functools.partial(timed, events_replay(engine_name))
    arms["alerts"] = functools.partial(timed, alerts_replay(engine_name))
    times = interleaved(arms, E01_ROUNDS)

    plain = last["plain"]
    # the default is untraced, unprofiled and unverified
    assert (plain.bus, plain.profiler, plain.checker) == (None, None, None)
    assert plain.stats.counters["messages_delivered"] > 100
    # Every cycle was bracketed, and the bracketing lands in the gap,
    # never in the phases.
    profiler = last["profile"].profiler
    assert profiler.cycles == CYCLES
    assert profiler.phases["routing"].calls == CYCLES
    assert 0 < profiler.phase_wall_ns() <= profiler.step_wall_ns
    checker = last["verify"].checker
    assert checker.checks_run >= CYCLES // VerifyConfig().check_interval
    assert checker.flits_consumed > 0
    assert checker.commits_checked > 0
    return times


def in_fresh_store(action):
    """``action(store)`` on a fresh on-disk store; returns its result."""
    with tempfile.TemporaryDirectory(prefix="cr-trace-bench-") as tmp:
        with CampaignStore(os.path.join(tmp, "camp.sqlite")) as store:
            return action(store)


def span_tally(store, name):
    """``(spans by status, spans by kind)`` journaled for ``name``."""
    kinds = collections.Counter(s["kind"] for s in store.spans(name))
    return store.span_counts(name), dict(kinds)


def campaign_run(spec):
    """Wall seconds of one plain campaign into a fresh on-disk store."""
    def run(store):
        start = time.perf_counter()
        stats = run_campaign(spec, store, heartbeat=None)
        elapsed = time.perf_counter() - start
        assert stats.complete, "overhead probe campaign failed"
        assert store.span_counts(spec.name) == {}, "a plain run traced"
        return elapsed

    return in_fresh_store(run)


def trace_replay(spec):
    """The tracing layer's work on top of a plain campaign.

    One traced campaign records its spans.  The replay then does
    everything ``trace=True`` adds to ``run_campaign``, span by span in
    trace order: build it on a fresh :class:`Tracer` (its parent, point
    and attributes as recorded), close it (the root last), journal it
    through ``record_spans`` (the root twice, open and closed, as the
    runner does), then run the settle sweep (``close_open_spans``).
    The armed run journals each ``run`` span inside its point's result
    transaction; the replay gives every journal call a transaction of
    its own, which costs no less.  So the replay does at least the
    armed run's extra work, and a plain run does none of it: its
    time bounds the layer's cost, without the host noise of two
    end-to-end campaigns.  Returns an arm: wall seconds of one replay
    into a fresh store, whose spans must tally as the armed run's.
    """
    def record(store):
        stats = run_campaign(spec, store, heartbeat=None, trace=True)
        assert stats.complete, "overhead probe campaign failed"
        return store.spans(spec.name), span_tally(store, spec.name)

    recorded, armed = in_fresh_store(record)
    assert armed[0].get("open", 0) == 0, "armed run left spans open"
    assert armed[1].get("root") == 1 and armed[1].get("run"), armed

    def replay(store):
        tracer = Tracer(worker_id="local")
        made = {}
        for row in recorded:
            span = made[row["span_id"]] = tracer.start_span(
                row["name"], kind=row["kind"],
                parent=made.get(row["parent_id"]), point_id=row["point_id"],
                attrs=row["attrs"], start_ts=row["start_ts"],
            )
            if row["kind"] == "root":
                root, root_row = span, row
                store.record_spans(spec.name, [span.to_dict()])
                continue
            done = tracer.end_span(span, row["status"], end_ts=row["end_ts"])
            store.record_spans(spec.name, [done.to_dict()])
        done = tracer.end_span(root, root_row["status"],
                               end_ts=root_row["end_ts"])
        store.record_spans(spec.name, [done.to_dict()])
        store.close_open_spans(spec.name)

    def arm(store):
        elapsed = timed(lambda: replay(store))
        assert span_tally(store, spec.name) == armed, "replay drifted"
        return elapsed

    return functools.partial(in_fresh_store, arm)


def campaign_rounds(engine_name):
    """The tracing loop: plain campaign runs and the trace replay."""
    spec = CampaignSpec.from_dict(CAMPAIGN).with_base(engine=engine_name)
    return interleaved({
        "plain": functools.partial(campaign_run, spec),
        "trace": trace_replay(spec),
    }, CAMPAIGN_ROUNDS)


ESTIMATORS = {
    "events": replayed,
    "alerts": replayed,
    "profile": paired,
    "verify": paired,
    "trace": replayed,
}


@pytest.mark.parametrize("layer, engine_name", sorted(BUDGETS))
def test_overhead_under_budget(layer, engine_name):
    budget = BUDGETS[layer, engine_name]
    rounds = campaign_rounds if layer == "trace" else e01_rounds
    overhead, plain, extra = ESTIMATORS[layer](rounds(engine_name), layer)
    print(f"\n{layer} overhead ({engine_name}): plain run "
          f"{plain * 1000:.1f}ms, +{extra * 1000:.2f}ms "
          f"({overhead:.2%}, budget {budget:.0%})")
    assert overhead < budget, (
        f"{layer} cost {overhead:.1%} of a {engine_name}-engine run's "
        f"wall time exceeds its {budget:.0%} budget"
    )
