"""The injection seam: what the fast engine's stalled-visit path rests on.

``FastEngine._inject`` takes a three-step path through a
stalled visit (``stall += 1``, one local tally, ``continue``) and adds
``injection_stall_cycles`` / ``flits_injected`` / ``pad_flits_injected``
to the run's counters in bulk.  That is the reference only if, after
every injection phase, every injector stands exactly where
``Injector.step`` would have left it and the three counters read the
same -- and if everything the phase calls out to (``_try_start``,
``_check_timeout``, ``_commit``, the kill manager, an event sink) finds
the counters the reference would have shown it.

The runs go through ``lockstep.py``'s driver, observed after the
table's ``injection`` entry.
"""

from __future__ import annotations

import pytest

from lockstep import CASCADE, SMALL, build, observe, observe_both
from repro.core.timeout import TimeoutPolicy
from repro.obs import attach
from repro.obs.events import InjectionStalled, InjectionStarted
from repro.obs.tracing import config_for_experiment
from repro.sim.config import SimConfig

COUNTERS = ("injection_stall_cycles", "flits_injected", "pad_flits_injected")
INJECTORS = "injector (uid, stall, next_index, vc)"


def injection_state(engine):
    """Every injector's ``(uid, stall, next_index, vc)`` and the three
    counters (``None`` while a counter has never been touched: a key
    that exists early would show in ``dict(stats.counters)``)."""
    counters = engine.stats.counters
    return {
        INJECTORS: tuple(
            (
                None if injector.current is None else injector.current.uid,
                injector.stall,
                injector.next_index,
                injector.vc,
            )
            for node in engine.nodes
            for injector in node.injectors
        ),
        str(COUNTERS): tuple(counters.get(name) for name in COUNTERS),
    }


RECORDERS = {"injection": injection_state}


def assert_injection_identical(config, cycles=500, drain=4000):
    """Run both engines; compare what every injection phase left."""
    reference, fast = observe_both(
        config, RECORDERS, cycles=cycles, drain=drain
    )
    longest = max(
        stall for state in fast.seen["injection"].values()
        for _, stall, _, _ in state[INJECTORS]
    )
    assert longest > 2, "no stall streak ever got past its second cycle"
    return reference, fast


class TestInjectionPhaseByPhase:
    @pytest.mark.parametrize("routing", ("cr", "dor"))
    def test_saturated_e01_torus(self, routing):
        config = config_for_experiment("e01").with_(
            routing=routing, num_vcs=2, load=0.5
        )
        assert_injection_identical(config, cycles=600, drain=6000)

    def test_cascading_faults_misrouting_mmpp(self):
        # Dead injection channels stall too, kills abort streaks, and
        # the retries pad for a misroute budget (a new threshold).
        assert_injection_identical(SimConfig(
            routing="fcr", misrouting=True, num_vcs=2, load=0.4,
            workload="mmpp", cascade_faults=CASCADE, **SMALL,
        ), drain=1500)

    def test_two_injectors_four_vcs(self):
        # Two streaks per node, each with a threshold of its own.
        assert_injection_identical(SimConfig(
            routing="cr", num_inject=2, num_vcs=4, load=0.6, **SMALL
        ))

    def test_path_wide_monitor_never_fires_from_the_injector(self):
        # Threshold infinity: every visit past the first is short, and
        # the kills come from the routers' monitor instead.
        reference, _ = assert_injection_identical(SimConfig(
            routing="cr", num_vcs=2, load=0.6, path_wide_cycles=24, **SMALL
        ))
        assert reference.stats.counters["kills"] > 0

    def test_unknown_timeout_policy_is_asked_every_stalled_cycle(self):
        # A policy the engine cannot see through gets limit 0: no visit
        # may take the short path, or fires() misses a call (this one
        # would then also kill at other cycles than the reference's).
        class EveryThirdCall(TimeoutPolicy):
            name = "every-third-call"

            def __init__(self):
                self.calls = 0

            def threshold(self, message, num_vcs):
                return 10 ** 9

            def fires(self, stall, message, num_vcs):
                self.calls += 1
                return stall >= 12 and self.calls % 3 == 0

        asked = {}
        for name in ("reference", "fast"):
            policy = EveryThirdCall()
            config = SimConfig(
                routing="cr", num_vcs=2, load=0.6, timeout=policy, **SMALL
            )
            engine = observe(config, name, RECORDERS)
            assert policy.calls == engine.stats.counters[
                "injection_stall_cycles"
            ], f"{name}: fires() was not asked on every stalled cycle"
            assert engine.stats.counters["kills"] > 0
            asked[name] = (policy.calls, engine.seen["injection"])
        assert asked["fast"][0] == asked["reference"][0]
        for now, state in asked["fast"][1].items():
            assert state == asked["reference"][1][now], f"t={now}"


class _CounterSink:
    """Event sink recording the run's counters as each event arrives."""

    def __init__(self, engine, log):
        self.engine = engine
        self.log = log

    def on_event(self, event) -> None:
        if isinstance(event, (InjectionStarted, InjectionStalled)):
            self.log.append((
                type(event).__name__, event.cycle, event.uid,
                dict(self.engine.stats.counters),
            ))


class TestCallOutsSeeTheReferenceCounters:
    """The flush-before-leaving rule: whatever the injection phase
    calls finds ``stats.counters`` as the reference would show them."""

    CONFIG = SimConfig(routing="cr", num_vcs=2, load=0.6, **SMALL)

    @staticmethod
    def _recording(engine, log, tag, real):
        def patched(*args, **kwargs):
            log.append((tag, engine.now, dict(engine.stats.counters)))
            return real(*args, **kwargs)

        return patched

    def _patched_calls(self, engine_name):
        engine = build(self.CONFIG, engine_name)
        log = []
        # One injector's call-outs are recorded; the others reach
        # kills.initiate through the unpatched check at their streak's
        # threshold.
        injector = engine.nodes[5].injectors[0]
        for name in ("_check_timeout", "_commit"):
            setattr(injector, name, self._recording(
                engine, log, name, getattr(injector, name)
            ))
        engine.kills.initiate = self._recording(
            engine, log, "initiate", engine.kills.initiate
        )
        engine.run(500)
        engine.run_until_drained(4000)
        return log

    def test_patched_hooks_record_identical_counter_sequences(self):
        reference = self._patched_calls("reference")
        fast = self._patched_calls("fast")
        for tag in ("_check_timeout", "_commit", "initiate"):
            assert sum(entry[0] == tag for entry in reference) > 5, (
                f"{tag} was hardly called: the case tests nothing"
            )
        # The fast engine makes the timeout check from a streak's
        # threshold on, the reference on every stalled cycle: each
        # check made reads what the reference's read on that cycle,
        # and every other call-out is the reference's, in order.
        def split(log):
            checks = {
                now: counters for tag, now, counters in log
                if tag == "_check_timeout"
            }
            return checks, [e for e in log if e[0] != "_check_timeout"]

        checks, others = split(fast)
        reference_checks, reference_others = split(reference)
        assert len(checks) > 5
        for now, counters in checks.items():
            assert counters == reference_checks[now], f"t={now}"
        assert len(others) == len(reference_others)
        for got, want in zip(others, reference_others):
            assert got == want

    def _event_log(self, engine_name):
        engine = build(self.CONFIG, engine_name)
        log = []
        attach(engine, _CounterSink(engine, log))
        engine.run(500)
        engine.run_until_drained(4000)
        return log

    def test_event_sinks_see_identical_counters(self):
        # InjectionStarted leaves through _try_start, InjectionStalled
        # through the bus on a streak's first cycle.
        reference = self._event_log("reference")
        fast = self._event_log("fast")
        for kind in ("InjectionStarted", "InjectionStalled"):
            assert sum(entry[0] == kind for entry in reference) > 20
        assert len(fast) == len(reference)
        for got, want in zip(fast, reference):
            assert got == want
