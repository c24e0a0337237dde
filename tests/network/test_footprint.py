"""What an e01 engine holds: a FIFO costs what its flits do, the
routing memo shares one answer per distinct candidate set under int
keys, and a delivered message leaves only its ledger row behind.

E01's network (an 8-ary 2-cube, two VCs of two flits per input) has 640
input VC buffers and 64 node queues; the memo sees ~1,000 keys in one
short run.  The figures below are for CPython 3.11.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.protocol import MessagePhase
from repro.experiments.common import QUICK
from repro.network.message import Message
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
    assert all(type(key) is int for key in memo)
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


def test_no_delivered_message_outlives_its_delivery():
    result = run_simulation(e01_config("cr", load=0.1), keep_engine=True)
    assert result.drained
    assert len(result.ledger.deliveries) > 500
    gc.collect()
    alive = sum(
        1 for obj in gc.get_objects()
        if isinstance(obj, Message) and obj.phase is MessagePhase.DELIVERED
    )
    assert alive == 0, f"{alive} delivered message(s) still held"


def test_run_heap_growth_per_delivery_is_bounded():
    # ~630 B per delivery on 3.11 (707 deliveries): a 144-byte ledger
    # row, the memo's int keys, per-pair sequence counters and latency
    # samples.  ~1,160 B while the ledger kept each delivered Message
    # with its containers and the memo keyed by tuples.
    config = e01_config("cr", load=0.1)
    config.build()  # first build: imports and module-level state
    built = {}

    def setup(engine):
        gc.collect()
        built["bytes"] = tracemalloc.get_traced_memory()[0]

    gc.collect()
    tracemalloc.start()
    try:
        result = run_simulation(config, keep_engine=True, setup=setup)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    deliveries = len(result.ledger.deliveries)
    assert result.drained and deliveries > 500
    per_delivery = (after - built["bytes"]) / deliveries
    assert per_delivery < 850, f"{per_delivery:.0f} B of heap per delivery"
