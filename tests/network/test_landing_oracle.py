"""The landing seam: what the fast engine's direct landing rests on.

``FastEngine._move`` appends a flit sent over a unit-latency link
straight to ``sink.fifo`` instead of staging it in ``sink.incoming``
for the next arrival phase to collect.  That is the reference only if

* after every **arrival** phase every buffer's ``fifo`` holds the same
  flits in the same order, ``route_pending`` lists the same buffers in
  the same order (it feeds the contractual shuffle and the order of
  ``HEADER_FAULT`` kills) and ``last_progress`` reads the same (the
  watchdog and ``_skip``'s horizon read it);
* after every **switch** phase every buffer's ``fifo`` followed by its
  ``incoming`` does -- everything that runs between a move and the next
  arrival phase reads the two together, never the split -- and
  ``last_progress`` does too: the reference sets it per transfer, the
  monitor phase reads it next.

The runs go through ``lockstep.py``'s driver, observed after the
table's ``arrival`` and ``switch`` entries.
"""

from __future__ import annotations

import pytest

from lockstep import (
    CASCADE,
    SMALL,
    assert_records_identical,
    build,
    observe_both,
    observed,
)
from repro.network.engine import NetworkDeadlockError
from repro.network.flit import Flit, FlitKind
from repro.network.message import Message
from repro.obs.tracing import config_for_experiment
from repro.sim.config import SimConfig


def _buffers(engine):
    for router in engine.routers:
        for port_buffers in router.in_buffers:
            yield from port_buffers


def _where(buffer):
    return (buffer.router.node_id, buffer.port, buffer.vc)


def _flits(flits):
    return tuple((flit.message.uid, flit.index) for flit in flits)


def arrival_state(engine):
    """What the arrival phase leaves: the non-empty fifos by buffer,
    ``route_pending`` in order, ``last_progress``."""
    return {
        "fifo": {
            _where(buffer): _flits(buffer.fifo)
            for buffer in _buffers(engine) if buffer.fifo
        },
        "route_pending": tuple(map(_where, engine.route_pending)),
        "last_progress": engine.last_progress,
    }


def switch_state(engine):
    """What the switch phase leaves: every buffer's flits, landed then
    in flight, as one sequence; ``last_progress``."""
    return {
        "fifo + incoming": {
            _where(buffer): _flits(buffer.fifo)
            + _flits(flit for _, flit in buffer.incoming)
            for buffer in _buffers(engine) if buffer.fifo or buffer.incoming
        },
        "last_progress": engine.last_progress,
    }


def link_sinks_in_flight(engine):
    """Link-fed buffers holding a flit in ``incoming`` (the staged
    path's footprint; injection sinks always stage)."""
    return [
        _where(buffer) for buffer in _buffers(engine)
        if buffer.incoming and not buffer.feeder.is_injection
    ]


RECORDERS = {"arrival": arrival_state, "switch": switch_state}
PROBES = {"switch": link_sinks_in_flight}


def staged(engine):
    """cycle -> link sinks with a flit in ``incoming`` after switch."""
    return engine.probed["switch"]


def assert_landing_identical(config, cycles=500, drain=4000):
    """Run both engines; compare what every arrival and switch phase
    left.  Returns ``(reference, fast)``."""
    reference, fast = observe_both(config, RECORDERS, PROBES, cycles, drain)
    assert any(
        len(state["route_pending"]) > 1
        for state in fast.seen["arrival"].values()
    ), "route_pending never held two headers: its order went untested"
    assert any(staged(reference).values())
    if config.channel_latency == 1:
        for now, sinks in staged(fast).items():
            assert not sinks, (
                f"t={now}: unit-latency link sinks {sinks} hold a flit "
                f"in incoming"
            )
    return reference, fast


class TestLandingPhaseByPhase:
    @pytest.mark.parametrize("routing", ("cr", "dor"))
    def test_saturated_e01_torus(self, routing):
        config = config_for_experiment("e01").with_(
            routing=routing, num_vcs=2, load=0.5
        )
        assert_landing_identical(config, cycles=600, drain=6000)

    def test_cascading_faults_misrouting_mmpp(self):
        # The cascade sweep reads occupancies between a move and the
        # next arrival phase; kills flush buffers holding landed flits.
        reference, _ = assert_landing_identical(SimConfig(
            routing="fcr", misrouting=True, num_vcs=2, load=0.4,
            workload="mmpp", cascade_faults=CASCADE, **SMALL,
        ), drain=1500)
        assert reference.fault_model.applied

    def test_a_worm_that_waited_out_a_dead_link_moves_alone(self):
        # Plain wormhole has no timeout: a worm behind a dead link sits
        # until the repair, and its first move is then the cycle's only
        # progress -- nothing lands, ejects or injects beside it, so
        # only the move itself can say so (the flit lands a cycle later
        # and the arrival record would read the same either way).
        reference, _ = assert_landing_identical(SimConfig(
            routing="dor", num_vcs=2, load=0.1, cascade_faults=CASCADE,
            **SMALL,
        ), drain=1500)
        assert reference.fault_model.applied

    def test_corrupted_headers_are_killed_in_arrival_order(self):
        # A corrupted header is killed where it lands; each kill draws
        # its backoff gap from the engine's rng, so the order of the
        # HEADER_FAULT kills within a cycle is part of the run.
        reference, _ = assert_landing_identical(SimConfig(
            routing="fcr", num_vcs=2, load=0.5, fault_rate=5e-3, **SMALL,
        ))
        assert reference.stats.counters["kills_header_fault"] > 5

    def test_latency_two_keeps_staging(self):
        _, fast = assert_landing_identical(SimConfig(
            routing="cr", num_vcs=2, load=0.5, channel_latency=2, **SMALL,
        ))
        assert any(staged(fast).values()), "no link sink ever staged a flit"
        assert fast._landed is None

    def test_two_injectors_four_vcs(self):
        assert_landing_identical(SimConfig(
            routing="cr", num_inject=2, num_vcs=4, load=0.6, **SMALL
        ))

    def test_unit_depth_buffers(self):
        # The credit loop at its tightest: every buffer is empty when
        # its next flit is sent, so a landed flit is always the head.
        assert_landing_identical(SimConfig(
            routing="cr", num_vcs=2, buffer_depth=1, load=0.5, **SMALL
        ))

    def test_the_watchdog_fires_on_the_same_cycle(self):
        # Plain wormhole with naive adaptive routing wedges; the last
        # progress before it is a flit landing, so a last_progress one
        # cycle short fires the watchdog a cycle early and moves the
        # report.
        config = SimConfig(
            routing="naive", num_vcs=1, load=0.6, watchdog=150, **SMALL
        )
        engines, reports = [], []
        for name in ("reference", "fast"):
            engine = observed(config, name, RECORDERS)
            with pytest.raises(NetworkDeadlockError) as excinfo:
                engine.run(5000)
            engines.append(engine)
            reports.append(str(excinfo.value))
        assert_records_identical(*engines)
        assert reports[1] == reports[0]


class TestSkipWaitsForLandedFlits:
    def test_a_landed_flit_blocks_skipping_like_a_staged_one(self):
        # Unreachable through the public surface today (a flit in the
        # network keeps its worm in ``in_flight``), pinned the way the
        # arrival set is: the skip decision must not depend on which
        # of the two places a sent flit waits in.
        engine = build(
            SimConfig(routing="cr", num_vcs=2, load=0.0, **SMALL), "fast"
        )
        engine.generator = None
        table = engine._phase_table()
        assert engine._skip(table, 100) == 100
        buffer = engine.routers[1].in_buffers[0][0]
        flit = Flit(Message(0, 1, 8), FlitKind.HEAD, 0, False)
        engine._arrival_buffers.add(buffer)
        assert engine._skip(table, 100) == 0
        engine._arrival_buffers.discard(buffer)
        engine._landed = [(buffer, flit)]
        assert engine._skip(table, 100) == 0
        engine._landed = []
        assert engine._skip(table, 100) == 0, "body flits landed too"
        engine._landed = None
        assert engine._skip(table, 100) == 100
