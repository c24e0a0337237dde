"""The injection seam: what the fast engine's stalled-visit path rests on.

``FastEngine._step_injectors`` takes a three-step path through a
stalled visit (``stall += 1``, one local tally, ``continue``) and adds
``injection_stall_cycles`` / ``flits_injected`` / ``pad_flits_injected``
to the run's counters in bulk.  That is the reference only if, after
every injection phase, every injector stands exactly where
``Injector.step`` would have left it and the three counters read the
same -- and if everything the phase calls out to (``_try_start``,
``_check_timeout``, ``_commit``, the kill manager, an event sink) finds
the counters the reference would have shown it.

The runs are single long ``run()`` / ``run_until_drained()`` calls (a
bare ``step()`` rebuilds the phase table and forgets every stall
limit), observed through a wrapper around the table's ``injection``
entry.  The two engines cannot run side by side -- message uids come
from one process-wide counter -- so each is run alone and the per-cycle
records are compared afterwards.
"""

from __future__ import annotations

import pytest

from repro.core.timeout import TimeoutPolicy
from repro.network.engine import Engine
from repro.network.fastengine import FastEngine
from repro.network.message import reset_uid_counter
from repro.obs import attach
from repro.obs.events import InjectionStalled, InjectionStarted
from repro.obs.tracing import config_for_experiment
from repro.sim.config import SimConfig

SMALL = dict(radix=4, dims=2, message_length=8, seed=11)
COUNTERS = ("injection_stall_cycles", "flits_injected", "pad_flits_injected")


def injection_state(engine):
    """Every injector's ``(uid, stall, next_index, vc)`` and the three
    counters (``None`` while a counter has never been touched: a key
    that exists early would show in ``dict(stats.counters)``)."""
    injectors = tuple(
        (
            None if injector.current is None else injector.current.uid,
            injector.stall,
            injector.next_index,
            injector.vc,
        )
        for node in engine.nodes
        for injector in node.injectors
    )
    counters = engine.stats.counters
    return injectors, tuple(counters.get(name) for name in COUNTERS)


class _ObservedInjection:
    """Mixin recording ``injection_state`` after every injection phase."""

    def _phase_table(self):
        return tuple(
            (name, self._observed(phase) if name == "injection" else phase)
            for name, phase in super()._phase_table()
        )

    def _observed(self, phase):
        def injection(now: int) -> None:
            phase(now)
            self.seen[now] = injection_state(self)

        return injection


class _ObservedEngine(_ObservedInjection, Engine):
    pass


class _ObservedFastEngine(_ObservedInjection, FastEngine):
    pass


def _build(config: SimConfig, engine_name: str):
    reset_uid_counter()
    engine = config.with_(engine=engine_name).build()
    if engine_name == "fast":
        assert type(engine) is FastEngine
        engine.__class__ = _ObservedFastEngine
    else:
        assert type(engine) is Engine
        engine.__class__ = _ObservedEngine
    engine.seen = {}
    return engine


def _observe(config: SimConfig, engine_name: str, cycles: int, drain: int):
    engine = _build(config, engine_name)
    engine.run(cycles)
    engine.run_until_drained(drain)
    return engine


def assert_injection_identical(config, cycles=500, drain=4000):
    """Run both engines; compare what every injection phase left."""
    reference = _observe(config, "reference", cycles, drain)
    fast = _observe(config, "fast", cycles, drain)
    assert fast.now == reference.now
    assert fast.seen, "the fast engine never ran an injection phase"
    # Cycles the fast engine skipped are cycles nothing could happen
    # in; every one it did step must read as the reference's did.
    for now, state in fast.seen.items():
        expected = reference.seen[now]
        if state == expected:
            continue
        for index, (got, want) in enumerate(zip(state[0], expected[0])):
            assert got == want, (
                f"t={now}: injector #{index} stands at (uid, stall, "
                f"next_index, vc) = {got}, the reference's at {want}"
            )
        assert state[1] == expected[1], (
            f"t={now}: {COUNTERS} read {state[1]} after the injection "
            f"phase, {expected[1]} under the reference"
        )
    assert dict(fast.stats.counters) == dict(reference.stats.counters)
    longest = max(
        stall for injectors, _ in fast.seen.values()
        for _, stall, _, _ in injectors
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
            workload="mmpp",
            cascade_faults=(
                "base_hazard=2e-4,load_gain=8,check_interval=16,"
                "neighbor_boost=10,boost_cycles=96,repair_cycles=200"
            ),
            **SMALL,
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
            engine = _observe(config, name, 500, 4000)
            assert policy.calls == engine.stats.counters[
                "injection_stall_cycles"
            ], f"{name}: fires() was not asked on every stalled cycle"
            assert engine.stats.counters["kills"] > 0
            asked[name] = (policy.calls, engine.seen)
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
        engine = _build(self.CONFIG, engine_name)
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
        engine = _build(self.CONFIG, engine_name)
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
