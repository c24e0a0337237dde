"""The credit seam: what the fast engine's direct credit return rests on.

``FastEngine._move`` adds the credit a pop frees over a unit-latency
channel straight to ``feeder.credits`` instead of staging it in
``feeder._pending`` for the next credit phase to release.  That is the
reference only if

* after every **credit** phase every channel's ``credits`` and
  ``_pending`` are the reference's -- the state injection and
  arbitration, the two readers of a spendable count, start from;
* after every **switch** phase every VC's ``credits + pending_credits``
  is -- what the invariant checker, the one reader between a move and
  the next credit phase, adds up;
* ``channel_state`` reads the same at every cycle boundary, whatever
  the run is cut into.

The runs go through ``lockstep.py``'s driver, observed after the
table's ``credit``, ``kill`` and ``switch`` entries.
"""

from __future__ import annotations

import pytest

from lockstep import CASCADE, SMALL, build, first_difference, observe_both
from repro.network.fastengine import channel_state
from repro.obs.tracing import config_for_experiment
from repro.sim.config import SimConfig


def in_flight(engine, upstream_only=False):
    """``{channel index: sorted _pending}`` for the channels holding a
    credit in flight; ``upstream_only``: link and injection channels,
    the ones a switch-stage pop returns a credit on."""
    return {
        index: tuple(sorted(channel._pending))
        for index, channel in enumerate(engine._all_channels)
        if channel._pending
        and not (upstream_only and channel.is_ejection)
    }


def credit_state(engine):
    """What the credit phase leaves: every channel's spendable counts
    and the credits still in flight."""
    return {
        "credits": tuple(
            tuple(channel.credits) for channel in engine._all_channels
        ),
        "_pending": in_flight(engine),
    }


def switch_state(engine):
    """What the switch phase leaves: per VC, credits spendable or in
    flight -- never the split."""
    return {"credits + pending_credits": tuple(
        tuple(
            channel.credits[vc] + channel.pending_credits(vc)
            for vc in range(channel.num_vcs)
        )
        for channel in engine._all_channels
    )}


RECORDERS = {"credit": credit_state, "switch": switch_state}
PROBES = {
    "switch": lambda engine: in_flight(engine, upstream_only=True),
    "kill": lambda engine: engine.stats.counters.get(
        "kill_segments_flushed", 0
    ),
}


def staged(engine):
    """cycle -> upstream channels with a credit in flight after switch."""
    return engine.probed["switch"]


def flushed(engine):
    """cycle -> segments its kill phase flushed (the counter moves in no
    other phase, so a kill phase's share is the step since the last)."""
    segments, before = {}, 0
    for now, total in engine.probed["kill"].items():
        segments[now], before = total - before, total
    return segments


def assert_direct(reference, fast):
    """The fast engine staged no switch-stage credit: an upstream
    channel holds one after switch only where that cycle's kill phase
    flushed a segment (a paced cycle runs no kill phase: nothing is
    dying) -- and the reference, on those same quiet cycles, did stage
    some."""
    killed = flushed(fast)
    quiet = [now for now in staged(fast) if not killed.get(now)]
    for now in quiet:
        assert not staged(fast)[now], (
            f"t={now}: no segment flushed, yet unit-latency channels "
            f"{sorted(staged(fast)[now])} hold a credit in flight"
        )
    assert any(staged(reference)[now] for now in quiet)


def assert_credits_identical(config, cycles=500, drain=4000):
    """Run both engines; compare what every credit and switch phase
    left.  Returns ``(reference, fast)``."""
    reference, fast = observe_both(config, RECORDERS, PROBES, cycles, drain)
    if config.channel_latency == 1:
        assert_direct(reference, fast)
    return reference, fast


class TestCreditsPhaseByPhase:
    @pytest.mark.parametrize("routing", ("cr", "dor"))
    def test_saturated_e01_torus(self, routing):
        config = config_for_experiment("e01").with_(
            routing=routing, num_vcs=2, load=0.5
        )
        _, fast = assert_credits_identical(config, cycles=600, drain=6000)
        if routing == "cr":
            assert any(flushed(fast).values()), "no kill flushed a segment"

    def test_cascading_faults_misrouting_mmpp(self):
        reference, fast = assert_credits_identical(SimConfig(
            routing="fcr", misrouting=True, num_vcs=2, load=0.4,
            workload="mmpp", cascade_faults=CASCADE, **SMALL,
        ), drain=1500)
        assert reference.fault_model.applied
        # The wavefront's flushes stay on the ledger, under both.
        assert any(
            staged(fast)[now] for now, count in flushed(fast).items() if count
        )

    def test_corrupted_headers(self):
        reference, _ = assert_credits_identical(SimConfig(
            routing="fcr", num_vcs=2, load=0.5, fault_rate=5e-3, **SMALL,
        ))
        assert reference.stats.counters["kills_header_fault"] > 5

    def test_latency_two_keeps_staging(self):
        reference, fast = assert_credits_identical(SimConfig(
            routing="cr", num_vcs=2, load=0.5, channel_latency=2, **SMALL,
        ))
        assert any(staged(fast).values()), "no switch-stage credit staged"
        for now, held in staged(fast).items():
            assert held == staged(reference)[now]
        # ...and one in flight outlives a credit phase.
        upstream = {
            index for index, channel in enumerate(fast._all_channels)
            if not channel.is_ejection
        }
        assert any(
            upstream & set(state["_pending"])
            for state in fast.seen["credit"].values()
        )

    def test_one_eject_slot(self):
        # The ejection credit loop is the bottleneck: one returned a
        # cycle early moves a flit a cycle early.
        assert_credits_identical(SimConfig(
            routing="cr", num_vcs=2, eject_slots=1, load=0.5, **SMALL
        ))

    def test_unit_depth_buffers(self):
        # Every link's credit loop is: a buffer's one credit is out
        # whenever it holds a flit.
        assert_credits_identical(SimConfig(
            routing="cr", num_vcs=2, buffer_depth=1, load=0.5, **SMALL
        ))

    def test_two_injectors_four_vcs(self):
        assert_credits_identical(SimConfig(
            routing="cr", num_inject=2, num_vcs=4, load=0.6, **SMALL
        ))


def _snapshot(engine):
    return {
        name: value.tolist() if hasattr(value, "tolist") else value
        for name, value in channel_state(engine).items()
    }


def _chunked(config, engine_name, chunk, cycles):
    engine = build(config, engine_name)
    snapshots = []
    for _ in range(0, cycles, chunk):
        engine.run(chunk)
        snapshots.append(_snapshot(engine))
    return engine, snapshots


class TestChannelStateAtEveryBoundary:
    """``channel_state`` is the reference's wherever a run is cut: the
    credits the cycle before a boundary returned directly are re-staged
    in the copy it returns."""

    CONFIG = SimConfig(routing="cr", num_vcs=2, load=0.5, **SMALL)

    @pytest.mark.parametrize("chunk", (1, 7, 16))
    def test_cut_into_chunks(self, chunk):
        cycles = 112 if chunk == 1 else 336
        reference, expected = _chunked(self.CONFIG, "reference", chunk, cycles)
        fast, snapshots = _chunked(self.CONFIG, "fast", chunk, cycles)
        assert fast.now == reference.now == cycles
        for index, (got, want) in enumerate(zip(snapshots, expected)):
            for name in want:
                assert got[name] == want[name], (
                    f"t={(index + 1) * chunk}: {name}, fast vs reference: "
                    f"{first_difference(got[name], want[name])}"
                )
        # The run ends undrained, and the boundaries did fall behind
        # cycles that moved flits: the reference holds credits in flight.
        assert reference.live
        in_flight_at = [any(snap["pending"]) for snap in expected]
        assert sum(in_flight_at) > len(expected) // 2

    def test_the_view_is_a_copy(self):
        # Re-staging happens in the arrays returned, not in the engine:
        # asking twice answers the same, and the run goes on unchanged.
        fast, _ = _chunked(self.CONFIG, "fast", 50, 50)
        before = [tuple(channel.credits) for channel in fast._all_channels]
        assert _snapshot(fast) == _snapshot(fast)
        assert before == [tuple(ch.credits) for ch in fast._all_channels]
        assert sum(_snapshot(fast)["pending"]) > sum(
            len(channel._pending) for channel in fast._all_channels
        )
