"""What an e01 engine holds: a FIFO costs what its flits do, and the
routing memo shares one answer per distinct candidate set.

E01's network (an 8-ary 2-cube, two VCs of two flits per input) has 640
input VC buffers and 64 node queues; the memo sees ~1,000 keys in one
short run.  The figures below are for CPython 3.11.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.experiments.common import QUICK
from repro.sim.simulator import run_simulation


def e01_config(routing, **overrides):
    return QUICK.base_config(num_vcs=2, buffer_depth=2).with_(
        routing=routing, **overrides
    )


@pytest.mark.parametrize("routing, answers", [("cr", 15), ("dor", 8)])
def test_memo_values_are_shared_answers(routing, answers):
    # Minimal routing on a 2-D torus has 15 productive-port sets (each
    # dimension: plus, minus, both or neither, not neither twice); DOR
    # has one candidate per (port, vc): 4 ports x 2 VCs.
    config = e01_config(routing, load=0.2, warmup=100, measure=400)
    engine = run_simulation(config, keep_engine=True).engine
    memo = engine._table._cache
    assert len(memo) > 500
    distinct = {id(tiers) for tiers in memo.values()}
    assert len(distinct) <= answers
    for tiers in memo.values():
        assert isinstance(tiers, tuple)
        assert all(isinstance(tier, tuple) for tier in tiers)


def test_built_engine_heap_is_bounded():
    # 0.55 MB on 3.11; 1.05 MB while every VC buffer and node queue was
    # an empty collections.deque (760 B each) and every memo key held
    # its own two lists.
    config = e01_config("cr", load=0.1)
    config.build()  # first build: imports and module-level state
    gc.collect()
    tracemalloc.start()
    try:
        engine = config.build()
        built, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.now == 0
    assert built < 750_000, f"built e01 engine holds {built} B"
