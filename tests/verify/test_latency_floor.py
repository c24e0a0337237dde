"""The zero-load latency law, held against the simulator.

``latency_floor`` is the wormhole pipeline timing the ``latency-floor``
invariant checks on every delivery.  At near-zero load queueing all but
vanishes, so most messages meet the floor exactly: a pipeline stage the
engine adds shows here as slack on every message, one it skips as a
violation.  A single ejection slot is such an added stage (the tail
waits a credit round trip per flit), which is why ``eject_slots``
defaults to 2.
"""

from functools import lru_cache

import pytest

from repro import SimConfig, run_simulation
from repro.core.protocol import ProtocolMode
from repro.verify.invariants import latency_floor

#: a 4-ary 2-cube at load 0.02: a few hundred messages, almost no queueing
ZERO_LOAD = dict(
    radix=4, dims=2, load=0.02, message_length=8,
    warmup=200, measure=2500, drain=3000, seed=7,
)


@lru_cache(maxsize=None)
def _run(routing, **overrides):
    """(slack of every delivery over its floor, mean network latency).

    Cached: the ordering test reads the runs the exactness test made.
    """
    result = run_simulation(
        SimConfig(routing=routing, **{**ZERO_LOAD, **overrides}),
        keep_engine=True,
    )
    engine = result.engine
    latency = engine.network.channel_latency
    pcs = engine.protocol.mode is ProtocolMode.PCS
    slacks = [
        message.delivered_at - message.inject_start_at - latency_floor(
            engine.topology.min_distance(message.src, message.dst),
            message.wire_length, latency, pcs,
        )
        for message in result.ledger.deliveries
    ]
    assert len(slacks) > 100
    return slacks, float(result.report["network_latency_mean"])


def _exact_share(slacks):
    return sum(1 for slack in slacks if slack == 0) / len(slacks)


class TestFormula:
    def test_pipeline(self):
        # 4 hops, 16 flits: the header crosses 6 channel stages and the
        # tail trails it by wire - 1.
        assert latency_floor(4, 16, 1, pcs=False) == 6 + 15

    def test_scales_with_channel_latency(self):
        assert latency_floor(4, 16, 2, pcs=False) == 12 + 15

    def test_pcs_adds_round_trip(self):
        # The probe and its acknowledgement take one cycle per hop
        # whatever the channel latency: 2 * 4 + 1 cycles of setup.
        assert latency_floor(4, 16, 1, pcs=True) == 6 + 15 + 9
        assert latency_floor(4, 16, 2, pcs=True) == 12 + 15 + 9


class TestZeroLoad:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("routing", ["dor", "cr", "fcr"])
    def test_meets_floor_exactly(self, routing, engine):
        slacks, _ = _run(routing, engine=engine)
        assert min(slacks) == 0
        assert _exact_share(slacks) >= 0.8
        # The same run with one ejection slot stalls every tail: not one
        # message is exact, so this test sees the slowdown.
        stalled, _ = _run(routing, engine=engine, eject_slots=1)
        assert min(stalled) > 0
        assert _exact_share(stalled) == 0

    # At channel latency 2 the credit loop needs deeper buffers and
    # more ejection slots to stream a flit a cycle; given them, the
    # circuit setup is still 2 * hops + 1 cycles, not 2 * hops * L.
    @pytest.mark.parametrize("overrides", [
        {},
        {"channel_latency": 2, "eject_slots": 4, "buffer_depth": 8},
    ], ids=["unit-latency", "latency-2"])
    def test_pcs_meets_its_floor(self, overrides):
        slacks, _ = _run("pcs", **overrides)
        assert min(slacks) == 0
        assert _exact_share(slacks) >= 0.8

    def test_zero_load_order(self):
        """Padding costs latency: dor < cr < fcr at zero load."""
        latency = {
            r: _run(r, engine="reference")[1] for r in ("dor", "cr", "fcr")
        }
        assert latency["dor"] < latency["cr"] < latency["fcr"]
