"""Profiler overhead: armed must stay cheap, off must stay free.

The engine self-profiler follows the strictest form of the repo's
guard discipline: the cycle function performs exactly one
``self.profiler is None`` test and, when it is None, walks the phase
table (an ordered tuple of ``(name, callable)``) with no timer calls
at all; when armed it hands the same tuple to
``EngineProfiler.timed_cycle``, which brackets each entry.  This
benchmark bounds the armed side on an e01-style run (CR, 8-ary
2-torus, moderate load):

* **disabled**: building without ``profile`` leaves
  ``engine.profiler is None`` -- the unprofiled run *is* the plain run
  (one guard check per step);
* **enabled**: the armed run brackets every table entry with
  ``perf_counter_ns``; its slowdown over the plain run must stay under
  ``OVERHEAD_BUDGET``.  The estimate is the median of ``PAIRS``
  interleaved plain/armed differences (the order flipped every pair)
  over the median plain run, as ``bench_trace_overhead`` measures.

A budget is a share of the plain run, and bracketing the table costs
the same absolute time on either engine, so each engine is gated
against its own: 5 % of a reference run, 10 % of a fast-engine run
(2.5-3x shorter); both measure ~0-2 %.

The measured figures are recorded into the shared
``results/overhead.json`` ledger next to the observability and
verification numbers.
"""

import time

import pytest
from overhead_log import PAIRS, paired_difference, record_overhead

from repro import SimConfig

CYCLES = 800
#: maximum tolerated end-to-end slowdown with the profiler armed, as
#: a share of that engine's plain run.
OVERHEAD_BUDGET = {"reference": 0.05, "fast": 0.10}


def _config(profile, engine):
    return SimConfig(
        radix=8, dims=2, routing="cr", load=0.3, message_length=16,
        warmup=0, measure=CYCLES, seed=99, profile=profile, engine=engine,
    )


def _timed_run(profile, engine_name):
    engine = _config(profile, engine_name).build()
    if profile:
        assert engine.profiler is not None
    else:
        assert engine.profiler is None  # the default: unprofiled
    start = time.perf_counter()
    engine.run(CYCLES)
    return time.perf_counter() - start, engine


@pytest.mark.parametrize("engine_name", sorted(OVERHEAD_BUDGET))
def test_profile_overhead_under_budget(benchmark, engine_name):
    budget = OVERHEAD_BUDGET[engine_name]
    last = {}

    def timed(profile):
        elapsed, last[profile] = _timed_run(profile, engine_name)
        return elapsed

    plain, difference = paired_difference(lambda: timed(False),
                                          lambda: timed(True))
    delivered = last[False].stats.counters["messages_delivered"]
    profiler = last[True].profiler
    assert delivered > 100  # the run actually simulated traffic

    # The attribution itself must be sane: every cycle was bracketed
    # and the per-phase wall times cannot exceed the whole-step time
    # (the bracketing overhead lands in the gap, never the phases).
    assert profiler.cycles == CYCLES
    assert profiler.phases["routing"].calls == CYCLES
    assert 0 < profiler.phase_wall_ns() <= profiler.step_wall_ns

    # Report the armed path in the benchmark table.
    benchmark.pedantic(_timed_run, args=(True, engine_name),
                       rounds=1, iterations=1)

    profiled = plain + difference
    overhead = max(difference, 0.0) / plain
    print(f"\nprofile overhead ({engine_name}): "
          f"plain run {plain * 1000:.1f}ms, "
          f"profiled run {profiled * 1000:.1f}ms "
          f"({overhead * 100:.2f}%)")
    record_overhead(
        f"profile.{engine_name}", overhead, budget,
        detail={
            "plain_ms": round(plain * 1000, 3),
            "profiled_ms": round(profiled * 1000, 3),
            "cycles": CYCLES,
            "pairs": PAIRS,
        },
    )
    assert overhead < budget, (
        f"profiler cost {overhead:.1%} of a {engine_name}-engine run's "
        f"wall time exceeds the {budget:.0%} budget"
    )
