"""Verification overhead: checking must stay cheap, off must stay free.

The invariant checker follows the same guard discipline as the
observability layer: every hook site in the engine, receiver, kill
manager, and injector tests ``engine.checker is not None`` and nothing
else when verification is off.  This benchmark bounds both sides on an
e01-style run (CR, 8-ary 2-torus, moderate load):

* **disabled**: building the config without ``verify`` leaves
  ``engine.checker is None`` -- the unverified run *is* the plain run
  (guard checks only, the same a-fortiori argument as
  ``bench_obs_overhead``);
* **enabled**: the fully armed run (default ``check_interval``) is
  timed end-to-end min-of-N against the plain run; the slowdown must
  stay under ``OVERHEAD_BUDGET``.

A budget is a share of the plain run, and the checker does the same
absolute work on either engine, so each engine is gated against its
own: 10 % of a reference run (measured ~2-3 %), 15 % of a fast-engine
run (2.5-3x shorter; measured ~5-6 %).
"""

import time

import pytest
from overhead_log import record_overhead

from repro import SimConfig, VerifyConfig

CYCLES = 800
ROUNDS = 3
#: maximum tolerated end-to-end slowdown with every invariant armed,
#: as a share of that engine's plain run.
OVERHEAD_BUDGET = {"reference": 0.10, "fast": 0.15}


def _config(verify, engine):
    return SimConfig(
        radix=8, dims=2, routing="cr", load=0.3, message_length=16,
        warmup=0, measure=CYCLES, seed=99, verify=verify, engine=engine,
    )


def _timed_run(verify, engine_name):
    engine = _config(verify, engine_name).build()
    if verify is None:
        assert engine.checker is None  # the default: unverified
    else:
        assert engine.checker is not None
    start = time.perf_counter()
    engine.run(CYCLES)
    return time.perf_counter() - start, engine


@pytest.mark.parametrize("engine_name", sorted(OVERHEAD_BUDGET))
def test_verify_overhead_under_budget(benchmark, engine_name):
    verify = VerifyConfig()
    budget = OVERHEAD_BUDGET[engine_name]

    plain_times, verified_times = [], []
    for _ in range(ROUNDS):
        elapsed, engine = _timed_run(None, engine_name)
        plain_times.append(elapsed)
        delivered = engine.stats.counters["messages_delivered"]
        elapsed, engine = _timed_run(verify, engine_name)
        verified_times.append(elapsed)
        checks = engine.checker.checks_run
    assert delivered > 100  # the run actually simulated traffic
    assert checks >= CYCLES // verify.check_interval  # checking happened
    assert engine.checker.flits_consumed > 0
    assert engine.checker.commits_checked > 0

    # Report the verified path in the benchmark table.
    benchmark.pedantic(_timed_run, args=(verify, engine_name),
                       rounds=1, iterations=1)

    plain, checked = min(plain_times), min(verified_times)
    overhead = max(0.0, checked / plain - 1.0)
    print(f"\nverify overhead ({engine_name}): "
          f"plain run {plain * 1000:.1f}ms, "
          f"verified run {checked * 1000:.1f}ms "
          f"({checks} sweeps, {overhead * 100:.2f}%)")
    record_overhead(
        f"verify.{engine_name}", overhead, budget,
        detail={
            "plain_ms": round(plain * 1000, 3),
            "verified_ms": round(checked * 1000, 3),
            "checks": checks,
        },
    )
    assert overhead < budget, (
        f"invariant checking cost {overhead:.1%} of a {engine_name}-engine "
        f"run's wall time exceeds the {budget:.0%} budget"
    )
