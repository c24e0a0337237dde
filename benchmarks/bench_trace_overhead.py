"""Tracing overhead: an armed campaign must cost < 3% extra.

``cr-sim campaign run --trace`` adds, per executed point, one
synthesised ``run`` span, one ``journal`` span, and their journaling
into the store's ``spans`` table (the run span rides the result's own
transaction; the journal span lands in one extra transaction).  The
fabric adds a lease span per batch and a renew span per heartbeat on
top — all the same machinery measured here.

Two bounds, both recorded into the shared ``results/overhead.json``
ledger:

1. **End-to-end**: the same campaign run armed vs unarmed (fresh
   on-disk store each run), asserting the armed run stays under
   ``OVERHEAD_BUDGET`` of the plain run.  Simulation work dominates,
   so this is the acceptance figure.  The span work is well under a
   millisecond against runs of a few hundred, so a difference of two
   per-side minima is mostly host noise; the runs go in ``PAIRS``
   interleaved plain/armed pairs (the order flipped every pair, so a
   drifting host loads both sides alike) and the estimate is the
   median of the paired differences over the median plain run.
2. **Isolated** (reported in ``detail``, not asserted): the raw cost
   of the per-point span work — start/end/to_dict plus
   ``record_spans`` — for the campaign's span volume, measured without
   the simulation around it.
"""

import os
import shutil
import tempfile
import time

from overhead_log import PAIRS, paired_difference, record_overhead

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.obs.trace import Tracer

#: maximum tolerated armed-run cost relative to the plain run.
OVERHEAD_BUDGET = 0.03

SPEC = {
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


def _timed_run(trace):
    """One fresh campaign run; returns (wall seconds, stats)."""
    spec = CampaignSpec.from_dict(SPEC)
    tmp = tempfile.mkdtemp(prefix="cr-trace-bench-")
    try:
        with CampaignStore(os.path.join(tmp, "camp.sqlite")) as store:
            start = time.perf_counter()
            stats = run_campaign(
                spec, store, workers=1, heartbeat=None, trace=trace,
            )
            elapsed = time.perf_counter() - start
            spans = store.span_counts(spec.name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert stats.complete, "overhead probe campaign failed"
    if trace:
        assert spans.get("open", 0) == 0, "armed run left spans open"
        assert sum(spans.values()) > 0, "armed run journaled no spans"
    return elapsed, stats


def _isolated_span_cost(points):
    """The raw span work per point, without the simulation around it."""
    tmp = tempfile.mkdtemp(prefix="cr-trace-bench-")
    try:
        with CampaignStore(os.path.join(tmp, "camp.sqlite")) as store:
            spec = CampaignSpec.from_dict(SPEC)
            store.register(spec)
            tracer = Tracer(worker_id="bench")
            start = time.perf_counter()
            for index in range(points):
                run = tracer.start_span(f"run p{index}", kind="run",
                                        point_id=f"p{index}",
                                        attrs={"attempt": 1})
                run = tracer.end_span(run, "ok")
                journal = tracer.start_span(f"journal p{index}",
                                            kind="journal", parent=run,
                                            point_id=f"p{index}")
                journal = tracer.end_span(journal, "ok")
                store.record_spans(spec.name,
                                   [run.to_dict(), journal.to_dict()])
            elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return elapsed


def test_trace_overhead_under_budget(benchmark):
    plain, difference = paired_difference(
        lambda: _timed_run(trace=False)[0],
        lambda: _timed_run(trace=True)[0],
    )

    benchmark.pedantic(lambda: _timed_run(trace=True), rounds=1,
                       iterations=1)

    armed = plain + difference
    overhead = max(difference, 0.0) / plain
    points = len(list(CampaignSpec.from_dict(SPEC).points()))
    isolated = _isolated_span_cost(points)
    print(f"\ntrace overhead: plain {plain * 1000:.1f}ms, "
          f"armed {armed * 1000:.1f}ms ({overhead * 100:.2f}%); "
          f"isolated span work for {points} points "
          f"{isolated * 1000:.2f}ms")
    record_overhead(
        "trace", overhead, OVERHEAD_BUDGET,
        detail={
            "plain_ms": round(plain * 1000, 3),
            "armed_ms": round(armed * 1000, 3),
            "isolated_span_ms": round(isolated * 1000, 3),
            "points": points,
            "pairs": PAIRS,
        },
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"armed campaign cost {overhead:.1%} over the plain run "
        f"exceeds the {OVERHEAD_BUDGET:.0%} tracing budget"
    )
