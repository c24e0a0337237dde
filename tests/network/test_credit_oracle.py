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

As in ``test_landing_oracle.py`` the two engines cannot run side by
side (message uids come from one process-wide counter): each is run
alone, observed through wrappers around the table's ``credit``,
``kill`` and ``switch`` entries, and the per-cycle records are compared
afterwards.
"""

from __future__ import annotations

import pytest

from repro.network.engine import Engine
from repro.network.fastengine import FastEngine, channel_state
from repro.network.message import reset_uid_counter
from repro.obs.tracing import config_for_experiment
from repro.sim.config import SimConfig

SMALL = dict(radix=4, dims=2, message_length=8, seed=11)
CASCADE = (
    "base_hazard=2e-4,load_gain=8,check_interval=16,"
    "neighbor_boost=10,boost_cycles=96,repair_cycles=200"
)


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


class _ObservedCredits:
    """Mixin recording the two states after their phases, what the
    upstream channels hold in flight after switch, and the segments the
    kill phase flushed."""

    RECORDERS = {"credit": credit_state, "switch": switch_state}

    def _phase_table(self):
        return tuple(
            (name, self._observed(name, phase))
            if name in self.RECORDERS or name == "kill" else (name, phase)
            for name, phase in super()._phase_table()
        )

    def _observed(self, name, phase):
        if name == "kill":
            counters = self.stats.counters

            def kill(now: int) -> None:
                before = counters["kill_segments_flushed"]
                phase(now)
                self.flushed[now] = counters["kill_segments_flushed"] - before

            return kill
        record = self.RECORDERS[name]
        seen = self.seen[name]

        def observed(now: int) -> None:
            phase(now)
            seen[now] = record(self)
            if name == "switch":
                self.staged[now] = in_flight(self, upstream_only=True)

        return observed


class _ObservedEngine(_ObservedCredits, Engine):
    pass


class _ObservedFastEngine(_ObservedCredits, FastEngine):
    pass


def _build(config: SimConfig, engine_name: str, observed: bool = True):
    reset_uid_counter()
    engine = config.with_(engine=engine_name).build()
    assert type(engine) is (FastEngine if engine_name == "fast" else Engine)
    if observed:
        engine.__class__ = (
            _ObservedFastEngine if engine_name == "fast" else _ObservedEngine
        )
        engine.seen = {"credit": {}, "switch": {}}
        #: cycle -> upstream channels with a credit in flight after switch.
        engine.staged = {}
        #: cycle -> segments its kill phase flushed.
        engine.flushed = {}
    return engine


def _observe(config, engine_name, cycles, drain):
    engine = _build(config, engine_name)
    engine.run(cycles)
    engine.run_until_drained(drain)
    return engine


def _first_difference(got, want):
    """The first channel two records disagree on (a record is a dict
    keyed by channel index, or a sequence with one entry per channel)."""
    if isinstance(got, dict):
        channels = sorted(set(got) | set(want))
        got, want = map(got.get, channels), map(want.get, channels)
    else:
        channels = range(len(got))
    for channel, mine, theirs in zip(channels, got, want):
        if mine != theirs:
            return f"channel {channel}: {mine} != {theirs}"
    return "no channel differs"


def assert_records_identical(reference, fast):
    """Every phase the fast engine ran left what the reference's did
    (cycles it skipped are cycles nothing could happen in)."""
    for phase in ("credit", "switch"):
        assert fast.seen[phase], f"the fast engine never ran {phase}"
        for now, state in fast.seen[phase].items():
            expected = reference.seen[phase][now]
            for name, got in state.items():
                assert got == expected[name], (
                    f"t={now}, after {phase}: {name}, fast vs reference: "
                    f"{_first_difference(got, expected[name])}"
                )
    assert fast.now == reference.now


def assert_direct(reference, fast, cycles):
    """Over ``cycles`` the fast engine staged no switch-stage credit: an
    upstream channel holds one after switch only where that cycle's kill
    phase flushed a segment (a paced cycle runs no kill phase: nothing
    is dying) -- and the reference, on those same quiet cycles, did
    stage some."""
    quiet = [
        now for now in cycles
        if now in fast.staged and not fast.flushed.get(now)
    ]
    for now in quiet:
        assert not fast.staged[now], (
            f"t={now}: no segment flushed, yet unit-latency channels "
            f"{sorted(fast.staged[now])} hold a credit in flight"
        )
    assert any(reference.staged[now] for now in quiet)


def assert_credits_identical(config, cycles=500, drain=4000):
    """Run both engines; compare what every credit and switch phase
    left.  Returns ``(reference, fast)``."""
    reference = _observe(config, "reference", cycles, drain)
    fast = _observe(config, "fast", cycles, drain)
    assert_records_identical(reference, fast)
    assert dict(fast.stats.counters) == dict(reference.stats.counters)
    if config.channel_latency == 1:
        assert_direct(reference, fast, list(fast.staged))
    return reference, fast


class TestCreditsPhaseByPhase:
    @pytest.mark.parametrize("routing", ("cr", "dor"))
    def test_saturated_e01_torus(self, routing):
        config = config_for_experiment("e01").with_(
            routing=routing, num_vcs=2, load=0.5
        )
        _, fast = assert_credits_identical(config, cycles=600, drain=6000)
        if routing == "cr":
            assert any(fast.flushed.values()), "no kill flushed a segment"

    def test_cascading_faults_misrouting_mmpp(self):
        reference, fast = assert_credits_identical(SimConfig(
            routing="fcr", misrouting=True, num_vcs=2, load=0.4,
            workload="mmpp", cascade_faults=CASCADE, **SMALL,
        ), drain=1500)
        assert reference.fault_model.applied
        # The wavefront's flushes stay on the ledger, under both.
        assert any(
            fast.staged[now] for now, count in fast.flushed.items() if count
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
        assert any(fast.staged.values()), "no switch-stage credit staged"
        for now, staged in fast.staged.items():
            assert staged == reference.staged[now]
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
    engine = _build(config, engine_name, observed=False)
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
                    f"{_first_difference(got[name], want[name])}"
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
