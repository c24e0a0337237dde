"""FastEngine differential equivalence and behaviour tests.

The fast engine's contract is flit-for-flit identity with the
reference engine, so nearly every test here is a differential run:
same config, both engines, identical events/report/channel state.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys

import pytest

import repro

from repro.core.swretry import SoftwareReliability
from repro.faults.model import CompositeFaultModel, FaultModel
from repro.faults.permanent import ChannelFault, PermanentFaultSchedule
from repro.network.channel import Channel
from repro.network.fastengine import FastEngine, FastEngineRefusal
from repro.network.message import Message, reset_uid_counter
from repro.obs.tracing import run_traced
from repro.routing.dor import DimensionOrder
from repro.routing.misrouting import MisroutingAdaptive
from repro.sim.config import SimConfig
from repro.verify import (
    ENGINE_EQUIVALENCE_PRESETS,
    VerifyConfig,
    apply_mutation,
    assert_engines_equivalent,
    engine_equivalence_presets,
    iter_fuzz_equivalence_configs,
)
from repro.verify.reference import ReferenceEngine

# Small-but-busy base for the targeted cases: large enough to exercise
# kills/misrouting, small enough to keep the differential runs quick.
SMALL = dict(
    radix=4, dims=2, message_length=8, load=0.3,
    warmup=60, measure=240, drain=800, seed=11,
)


class TestPresetEquivalence:
    """Acceptance presets: e01, e07, and the e16-style no-VC mesh."""

    @pytest.mark.parametrize("name", ENGINE_EQUIVALENCE_PRESETS)
    def test_preset_is_flit_identical(self, name):
        config = engine_equivalence_presets()[name]
        assert_engines_equivalent(config, label=name)


class TestFuzzCorpusEquivalence:
    """The seeded 25-config fuzz corpus, run under both engines."""

    @pytest.mark.parametrize(
        "index,config",
        list(iter_fuzz_equivalence_configs()),
        ids=lambda value: (
            f"case{value:02d}" if isinstance(value, int) else ""
        ),
    )
    def test_fuzz_case_is_flit_identical(self, index, config):
        assert_engines_equivalent(config, label=f"fuzz case {index}")


class TestTargetedEquivalence:
    def test_pcs_falls_back_and_stays_identical(self):
        # build() falls back: PCS is the reference engine's, so asking
        # for "fast" gets ReferenceEngine, and trivially the same run.
        config = SimConfig(routing="pcs", num_vcs=2, **SMALL)
        assert type(config.with_(engine="fast").build()) is ReferenceEngine
        assert_engines_equivalent(config, label="pcs")

    def test_swretry_falls_back_and_stays_identical(self):
        config = SimConfig(
            routing="dor", software_retry=True, num_vcs=2,
            fault_rate=5e-4, **SMALL
        )
        assert type(config.with_(engine="fast").build()) is ReferenceEngine
        assert_engines_equivalent(config, label="swretry")

    def test_faulty_run_is_identical(self):
        assert_engines_equivalent(
            SimConfig(
                routing="fcr", num_vcs=2, fault_rate=5e-4, **SMALL
            ),
            label="fcr-faults",
        )


    def test_cascade_misrouting_mmpp_is_identical(self):
        # Bursty traffic into dying and repaired links, with misroute
        # budget left on the retries: the one place headers stay
        # blocked across fault-epoch bumps and can be unblocked by one.
        assert_engines_equivalent(
            SimConfig(
                routing="fcr", misrouting=True, num_vcs=2,
                workload="mmpp",
                cascade_faults=(
                    "base_hazard=2e-4,load_gain=8,check_interval=16,"
                    "neighbor_boost=10,boost_cycles=96,repair_cycles=200"
                ),
                **{**SMALL, "load": 0.4, "drain": 4000},
            ),
            label="cascade-misrouting-mmpp",
        )

    def test_drop_at_block_is_identical(self):
        # E19's monitor reads route_stall_since of headers the fast
        # engine has stopped re-trying.
        assert_engines_equivalent(
            SimConfig(
                routing="drop", drop_at_block_cycles=6,
                **{**SMALL, "load": 0.5},
            ),
            label="e19-drop-at-block",
        )


class TestE23TraceIdentity:
    """E23's recorded-workload replay, run under both engines.

    E23's whole argument rests on byte-identical workloads, so the
    engines must agree not just on generated traffic but on trace
    replay — including the drained makespan cycle count.
    """

    @pytest.mark.parametrize("scheme", ("cr", "dor"))
    def test_replay_is_flit_identical(self, scheme):
        from repro.workload import record_trace

        reset_uid_counter()
        entries = record_trace(SimConfig(routing="cr", **SMALL))
        assert_engines_equivalent(
            SimConfig(
                routing=scheme, num_vcs=2, **SMALL,
                workload={"kind": "trace", "entries": entries},
            ),
            label=f"e23-{scheme}",
        )


class TestEngineBehaviour:
    def _run(self, **overrides):
        params = dict(SMALL)
        params.update(overrides)
        reset_uid_counter()
        return run_traced(
            SimConfig(engine="fast", **params), keep_engine=True
        )

    def test_event_skipping_happens_when_sparse(self):
        # At very low load the network is quiescent most of the time;
        # the fast engine must jump those gaps rather than tick them.
        traced = self._run(routing="cr", num_vcs=2, load=0.02)
        engine = traced.result.engine
        assert isinstance(engine, FastEngine)
        assert engine.cycles_skipped > 0

    def test_profiler_attributes_skipped_cycles_to_idle(self):
        # Profiled runs keep paced generator cycles timed, so idle-phase
        # accounting shows up on pure skips: replay a sparse trace,
        # where the gaps between entries have no actor at all.
        from repro.workload import record_trace

        reset_uid_counter()
        entries = record_trace(
            SimConfig(routing="cr", num_vcs=2, **{
                **SMALL, "load": 0.02,
            })
        )
        traced = self._run(
            routing="cr", num_vcs=2, load=0.0, profile=True,
            workload={"kind": "trace", "entries": entries},
        )
        idle = traced.report["profile"]["phases"]["idle"]
        assert idle["calls"] > 0
        assert traced.result.engine.cycles_skipped > 0

    def test_saturated_run_skips_nothing_yet_matches(self):
        traced = self._run(routing="cr", num_vcs=2, load=0.9)
        assert traced.result.engine.cycles_skipped == 0

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimConfig(engine="bogus", **SMALL).build()

    def test_fast_engine_is_the_default(self):
        assert SimConfig().engine == "fast"
        assert type(SimConfig(**SMALL).build()) is FastEngine


class TestEngineSelection:
    """``build()`` picks the class, from the config alone: what only
    the reference engine runs gets it whatever ``engine`` says."""

    BUILT = {"fast": FastEngine, "reference": ReferenceEngine}

    @pytest.mark.parametrize("engine,routing,software_retry,mutation,built", [
        ("fast", "cr", False, None, "fast"),
        ("fast", "fcr", False, None, "fast"),
        ("fast", "dor", False, None, "fast"),
        ("fast", "drop", False, None, "fast"),
        ("fast", "pcs", False, None, "reference"),
        ("fast", "dor", True, None, "reference"),
        ("fast", "cr", False, "credit-loss", "reference"),
        ("fast", "dor", True, "credit-loss", "reference"),
        ("reference", "cr", False, None, "reference"),
        ("reference", "pcs", False, None, "reference"),
        ("reference", "dor", True, None, "reference"),
        ("reference", "cr", False, "credit-loss", "reference"),
    ])
    def test_build_selects_the_class(
        self, engine, routing, software_retry, mutation, built
    ):
        # The checker alone (mutation None) rides either engine.
        engine = SimConfig(
            engine=engine, routing=routing, software_retry=software_retry,
            verify=VerifyConfig(mutation=mutation), num_vcs=2, **SMALL,
        ).build()
        assert type(engine) is self.BUILT[built]
        assert {type(ch) for ch in engine._all_channels} == {Channel}
        assert engine.checker is not None
        assert (engine.reliability is not None) == software_retry
        assert (engine.pcs is not None) == (routing == "pcs")


class TestRefusals:
    """What the fast engine does not run it refuses, early, naming the
    engine that does -- it has no second mode to change into."""

    @staticmethod
    def _parts(engine_name, routing="dor"):
        """The network and protocol ``build()`` would hand ``engine_name``."""
        built = SimConfig(
            engine=engine_name, routing=routing, num_vcs=2, **SMALL
        ).build()
        return built.network, built.protocol

    def test_pcs_protocol_is_refused_at_construction(self):
        _, pcs = self._parts("reference", routing="pcs")
        network, _ = self._parts("fast")
        with pytest.raises(FastEngineRefusal, match='engine="reference"'):
            FastEngine(network, protocol=pcs)

    def test_attached_reliability_layer_is_refused_before_a_cycle(self):
        engine = SimConfig(routing="dor", num_vcs=2, **SMALL).build()
        assert type(engine) is FastEngine
        SoftwareReliability().attach(engine)
        for drive in (
            lambda: engine.run(10),
            lambda: engine.run_until_drained(10),
            engine.step,
        ):
            with pytest.raises(FastEngineRefusal, match='engine="reference"'):
                drive()
        assert engine.now == 0
        assert not engine.stats.counters

    def test_a_mutation_is_not_planted_on_a_fast_engine(self):
        engine = SimConfig(routing="cr", **SMALL).build()
        with pytest.raises(TypeError, match='engine="reference"'):
            apply_mutation(engine, "credit-loss")
        assert "_transfer" not in vars(engine)


class TestInputsThatDoNotSay:
    """The wake protocol's safety fallbacks.

    A fault model whose ``on_cycle`` override does not define
    ``next_event``, and a hand-assigned generator with no
    ``skip_state``, may act on any cycle: the fast engine must step
    every one of them, and stay identical to the reference.
    """

    # Near idle: everything here would be skipped if the input said so.
    IDLE = dict(
        radix=4, dims=2, routing="fcr", misrouting=True, num_vcs=2,
        message_length=8, load=0.01, warmup=0, measure=1200, drain=2000,
        seed=3,
    )

    class KillsALinkAt700(FaultModel):
        def on_cycle(self, now, network):
            if now == 700:
                network.find_link(0, 1).dead = True

    class CorruptsOneFlit(FaultModel):
        """Overrides ``corrupt`` only, and declares nothing: asked on
        every link traversal, each one a draw from the engine's rng."""

        def corrupt(self, flit, channel, rng):
            noise = rng.random()
            message = flit.message
            return noise >= 0 and (
                message.uid, message.attempts, flit.index,
                channel.src_node, channel.dst_node,
            ) == (2, 1, 3, 0, 1)

    class HandGenerator:
        """``tick`` / ``generated`` only."""

        def __init__(self):
            self.generated = 0

        def tick(self, engine, now):
            if now in (5, 400, 900):
                message = Message(
                    0, 1, 8, created_at=now, seq=engine.next_seq(0, 1)
                )
                if engine.admit(message):
                    self.generated += 1

    def _run(self, engine_name, generator=None, **overrides):
        reset_uid_counter()
        config = SimConfig(engine=engine_name, **{**self.IDLE, **overrides})
        engine = config.build()
        sink = repro.ListSink()
        repro.attach(engine, sink)
        if generator is not None:
            engine.generator = generator
        engine.run(config.measure)
        assert engine.run_until_drained(config.drain)
        return engine, [repr(event) for event in sink.events]

    def _assert_identical_and_unskipped(self, inputs):
        # ``inputs()`` builds fresh kwargs for ``_run``: each engine
        # consumes its own fault model / generator.
        _, reference = self._run("reference", **inputs())
        fast, events = self._run("fast", **inputs())
        assert events == reference
        assert any("MessageDelivered" in event for event in events)
        assert fast.cycles_skipped == 0
        return fast

    def test_the_same_run_skips_when_its_inputs_say(self):
        fast, _ = self._run("fast")
        assert fast.cycles_skipped > 0

    def test_fault_hook_without_next_event(self):
        fast = self._assert_identical_and_unskipped(
            lambda: {"fault_model": self.KillsALinkAt700()}
        )
        assert fast.network.find_link(0, 1).dead

    def test_unknown_child_turns_skipping_off_for_the_composite(self):
        self._assert_identical_and_unskipped(lambda: {
            "fault_model": CompositeFaultModel([
                PermanentFaultSchedule([ChannelFault(300, 4, 5)]),
                self.KillsALinkAt700(),
            ]),
        })

    def test_hand_assigned_generator_without_skip_state(self):
        fast = self._assert_identical_and_unskipped(
            lambda: {"generator": self.HandGenerator()}
        )
        assert fast.generator.generated == 3

    def test_corrupt_override_that_declares_nothing_is_asked(self):
        # The third hand-made message loses payload flit 3 on its one
        # link, first attempt only: FKILLed at the receiver,
        # retransmitted, delivered.
        fast = self._assert_identical_and_unskipped(lambda: {
            "generator": self.HandGenerator(),
            "fault_model": self.CorruptsOneFlit(),
        })
        assert fast.fault_model.corrupts()
        assert fast.stats.counters["faults_injected"] == 1
        assert fast.stats.counters["kills_fkill"] == 1


class TestLatePatch:
    """The hooks the inlined move looks up per call -- a routing
    object's ``on_header_hop``, a fault model's overridden ``corrupt`` --
    are honoured when patched between two run() calls, in the
    reference's order.  (Methods the fast engine inlines are not: patch
    those on ``engine="reference"``.)"""

    # The switch stage arbitrates every port first and moves the flits
    # afterwards; what it hoists out of the move loop it must look up
    # again on every call.  Either slip shows as a reordered or missing
    # call here.

    @staticmethod
    def _hook_calls(engine_name):
        reset_uid_counter()
        engine = SimConfig(
            radix=4, dims=2, routing="fcr", num_vcs=2, message_length=8,
            load=0.4, fault_rate=2e-3, seed=11, engine=engine_name,
        ).build()
        engine.run(100)
        calls = []
        routing, faults = engine.routing, engine.fault_model
        hop, corrupt = routing.on_header_hop, faults.corrupt

        def counting_hop(message, channel):
            calls.append((
                "hop", channel.src_node, channel.src_port, message.uid,
                0, engine.now,
            ))
            hop(message, channel)

        def counting_corrupt(flit, channel, rng):
            calls.append((
                "corrupt", channel.src_node, channel.src_port,
                flit.message.uid, flit.index, engine.now,
            ))
            return corrupt(flit, channel, rng)

        routing.on_header_hop = counting_hop
        faults.corrupt = counting_corrupt
        engine.run(150)
        return calls

    def test_hooks_inside_the_inlined_move_keep_their_order(self):
        reference = self._hook_calls("reference")
        fast = self._hook_calls("fast")
        assert {name for name, *_ in reference} == {"hop", "corrupt"}
        assert fast == reference


class TestRoutingTableAgainstTheRelation:
    """``RoutingTable.candidates`` is ``routing.candidates``, for every
    ``(node, dst)`` and every bit of header state the relations read.

    The relations hand out pooled ``Candidate`` objects and the table
    hands one answer to many callers, so equality is checked against a
    second relation object that shares neither, against a copy taken at
    the first asking, and in both orders over the pairs.
    """

    SHAPES = {
        "4-ary-2-torus": dict(topology="torus", radix=4, dims=2),
        "3x3-mesh": dict(topology="mesh", radix=3, dims=2),
        "3-cube": dict(topology="hypercube", dims=3),
    }

    @staticmethod
    def _engine(shape, **overrides):
        reset_uid_counter()
        return SimConfig(
            engine="fast", num_vcs=4, load=0.0, **shape, **overrides
        ).build()

    @staticmethod
    def _pairs(engine):
        nodes = range(engine.topology.num_nodes)
        pairs = [(node, dst) for node in nodes for dst in nodes if node != dst]
        return pairs + pairs[::-1]

    def _check(self, engine, states, fresh=None):
        """Ask the table and an unshared relation about every pair in
        every header state; returns how many answers were compared."""
        routing = engine.routing
        if fresh is None:
            fresh = type(routing)(engine.topology)
        table = engine._table
        first = {}
        for node, dst in self._pairs(engine):
            router = engine.routers[node]
            message = Message(0 if dst else 1, dst, 4)
            for state in states:
                for name, value in state.items():
                    setattr(message, name, value)
                where = f"{engine.topology.name} {node} -> {dst} {state}"
                expected = fresh.candidates(router, message)
                answer = table.candidates(router, message)
                again = table.candidates(router, message)
                assert answer == expected, where
                assert again == expected, where
                assert routing.candidates(router, message) == expected, where
                key = (node, dst, tuple(state.items()))
                if key in first:
                    assert answer == first[key], f"{where}: answer moved"
                else:
                    first[key] = copy.deepcopy(answer)
        return len(first)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    def test_minimal_adaptive(self, shape):
        engine = self._engine(shape, routing="cr")
        assert engine._table._kind == "minimal"
        assert self._check(engine, [{}])
        assert engine._table._cache

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    @pytest.mark.parametrize("routing", ("dor", "dor+cr"))
    def test_dimension_order(self, shape, routing):
        engine = self._engine(shape, routing=routing)
        assert engine._table._kind == "dor"
        dateline = routing == "dor" and shape["topology"] == "torus"
        assert engine.routing.vc_classes == (2 if dateline else 1)
        states = [
            dict(lane=lane, dor_dim=dor_dim, dateline_bit=bit)
            for lane in range(5)
            for dor_dim in range(-1, shape["dims"])
            for bit in (0, 1)
        ]
        fresh = DimensionOrder(engine.topology, dateline=routing == "dor")
        assert self._check(engine, states, fresh)
        vcs = {
            tier[0].vc for tiers in engine._table._cache.values()
            for tier in tiers
        }
        assert vcs == set(range(4)), "a lane or dateline class went unused"

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    def test_duato(self, shape):
        engine = self._engine(shape, routing="duato")
        assert engine._table._kind == "live"
        states = [
            dict(dor_dim=dor_dim, dateline_bit=bit)
            for dor_dim in range(-1, shape["dims"]) for bit in (0, 1)
        ]
        assert self._check(engine, states)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    @pytest.mark.parametrize("dead", ("none", "some", "all"))
    def test_misrouting(self, shape, dead):
        engine = self._engine(shape, routing="cr", misrouting=True)
        assert engine._table._kind == "misroute"
        topology = engine.topology
        exhausted = dict(misroute_budget=2, misroutes_used=2)
        states = [
            dict(misroute_budget=0, misroutes_used=0),
            dict(misroute_budget=2, misroutes_used=1),
            exhausted,
        ]
        detours = 0
        for node, dst in self._pairs(engine):
            router = engine.routers[node]
            productive = [
                router.out_channels[link.port]
                for link in topology.productive_links(node, dst)
            ]
            victims = {
                "none": [], "some": productive[:-1], "all": productive
            }[dead]
            for channel in victims:
                channel.dead = True
            try:
                message = Message(0 if dst else 1, dst, 4)
                fresh = MisroutingAdaptive(topology)
                answers = []
                for state in states + states:
                    for name, value in state.items():
                        setattr(message, name, value)
                    expected = fresh.candidates(router, message)
                    assert engine._table.candidates(
                        router, message
                    ) == expected, f"{node} -> {dst} {state} dead={dead}"
                    answers.append(copy.deepcopy(expected))
                # Budget 0, budget left, budget spent -- and the same
                # again after the budget-left call appended its detour
                # tier: the memoised answers must not have grown one.
                assert answers[:3] == answers[3:]
                assert answers[0] == answers[2]
                assert len(answers[0]) == 1
                detoured = len(answers[1]) == 2
                assert detoured == (
                    dead == "all"
                    and len(productive) < len(topology.links(node))
                )
                if detoured:
                    detours += 1
                    assert all(cand.is_misroute for cand in answers[1][1])
                    assert not {c.port for c in answers[1][1]} & {
                        c.port for c in answers[1][0]
                    }
            finally:
                for channel in victims:
                    channel.dead = False
        assert (detours > 0) == (dead == "all")


def test_import_repro_does_not_import_numpy():
    # Only the snapshot helpers use numpy, only a run that serves
    # telemetry uses http.server, only a parallel sweep uses a process
    # pool; every run, worker process and CLI call would otherwise pay
    # their imports.  (ci.yml's tier1 job runs the same check.)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.campaign, repro.network.fastengine; "
         "heavy = ('numpy', 'http.server', 'concurrent.futures', "
         "'multiprocessing'); "
         "sys.exit(', '.join(m for m in heavy if m in sys.modules) or 0)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, f"import repro loads {done.stderr.strip()}"


def test_the_spec_engine_loads_only_for_a_run_on_it():
    # The reference engine and the PCS manager only it constructs are
    # the oracle's: a product run imports neither, a run on the spec
    # both.  (ci.yml's tier1 job runs this test by id.)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; "
         "spec = ('repro.verify.reference', 'repro.core.pcs'); "
         "small = dict(radix=4, warmup=10, measure=40, drain=200); "
         "repro.SimConfig(**small).build().run(50); "
         "early = [m for m in spec if m in sys.modules]; "
         "repro.SimConfig(engine='reference', **small).build(); "
         "late = [m for m in spec if m not in sys.modules]; "
         "sys.exit(f'a fast run loaded {early}; a reference build did "
         "not load {late}' if early or late else 0)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr.strip()
