"""FastEngine differential equivalence and behaviour tests.

The fast engine's contract is flit-for-flit identity with the
reference engine, so nearly every test here is a differential run:
same config, both engines, identical events/report/channel state.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

from repro.network.fastengine import FastEngine
from repro.network.message import reset_uid_counter
from repro.obs.tracing import run_traced
from repro.sim.config import SimConfig
from repro.verify import (
    ENGINE_EQUIVALENCE_PRESETS,
    assert_engines_equivalent,
    engine_equivalence_presets,
    iter_fuzz_equivalence_configs,
)

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
        # PCS uses the reference stepping path inside FastEngine; the
        # outputs must still match exactly.
        assert_engines_equivalent(
            SimConfig(routing="pcs", num_vcs=2, **SMALL),
            label="pcs",
        )

    def test_swretry_falls_back_and_stays_identical(self):
        assert_engines_equivalent(
            SimConfig(
                routing="dor", software_retry=True, num_vcs=2,
                fault_rate=5e-4, **SMALL
            ),
            label="swretry",
        )

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
        from repro.traffic.trace import record_trace

        reset_uid_counter()
        trace = record_trace(SimConfig(routing="cr", **SMALL))
        assert_engines_equivalent(
            SimConfig(
                routing=scheme, num_vcs=2, trace=trace, **SMALL
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
        from repro.traffic.trace import record_trace

        reset_uid_counter()
        trace = record_trace(
            SimConfig(routing="cr", num_vcs=2, **{
                **SMALL, "load": 0.02,
            })
        )
        traced = self._run(
            routing="cr", num_vcs=2, load=0.0, trace=trace, profile=True
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

    def test_reference_engine_is_the_default(self):
        assert SimConfig(**SMALL).engine == "reference"


class TestLatePatch:
    """A patch planted between two run() calls is honoured by both."""

    @staticmethod
    def _candidates_calls(engine_name):
        reset_uid_counter()
        engine = SimConfig(
            radix=4, dims=2, routing="cr", load=0.3, seed=3,
            engine=engine_name,
        ).build()
        engine.run(100)
        calls = []
        real = engine.routing.candidates

        def counting(router, message):
            calls.append((engine.now, router.node_id, message.uid))
            return real(router, message)

        engine.routing.candidates = counting
        engine.run(100)
        return calls

    def test_candidates_patch_between_runs_sees_every_call(self):
        # The routing memo used to classify the relation once, at the
        # first lookup, and then served memo hits past a later patch.
        reference = self._candidates_calls("reference")
        fast = self._candidates_calls("fast")
        assert reference, "no header was routed: the case tests nothing"
        assert fast == reference

    # The switch stage arbitrates every port first and moves the flits
    # afterwards; what it hoists out of the move loop it must look up
    # again on every call.  Either slip shows as a reordered or missing
    # call here.

    @staticmethod
    def _faulty_engine(engine_name):
        reset_uid_counter()
        engine = SimConfig(
            radix=4, dims=2, routing="fcr", num_vcs=2, message_length=8,
            load=0.4, fault_rate=2e-3, seed=11, engine=engine_name,
        ).build()
        engine.run(100)
        return engine

    def _transfer_calls(self, engine_name):
        engine = self._faulty_engine(engine_name)
        calls = []
        real = engine._transfer

        def counting(router, port, vc, buffer, now):
            calls.append(("transfer", router.node_id, port, vc, now))
            real(router, port, vc, buffer, now)

        engine._transfer = counting
        engine.run(150)
        return calls

    def test_transfer_patch_between_runs_sees_every_move_in_order(self):
        # The per-move fallback of FastEngine._move.
        reference = self._transfer_calls("reference")
        fast = self._transfer_calls("fast")
        assert len(reference) > 1000
        assert fast == reference

    def _hook_calls(self, engine_name):
        engine = self._faulty_engine(engine_name)
        calls = []
        routing, faults = engine.routing, engine.fault_model
        receiver = engine.nodes[5].receiver
        hop, corrupt, stage = (
            routing.on_header_hop, faults.corrupt, receiver.stage
        )

        def record(name, channel, flit, now):
            calls.append((
                name, channel.src_node, channel.src_port,
                flit.message.uid, flit.index, now,
            ))

        def counting_hop(message, channel):
            calls.append((
                "hop", channel.src_node, channel.src_port, message.uid,
                0, engine.now,
            ))
            hop(message, channel)

        def counting_corrupt(flit, channel, rng):
            record("corrupt", channel, flit, engine.now)
            return corrupt(flit, channel, rng)

        def counting_stage(flit, arrival, channel):
            record("stage", channel, flit, arrival)
            stage(flit, arrival, channel)

        routing.on_header_hop = counting_hop
        faults.corrupt = counting_corrupt
        receiver.stage = counting_stage
        engine.run(150)
        assert "_transfer" not in vars(engine)
        return calls

    def test_hooks_inside_the_inlined_move_keep_their_order(self):
        reference = self._hook_calls("reference")
        fast = self._hook_calls("fast")
        assert {name for name, *_ in reference} == {"hop", "corrupt", "stage"}
        assert fast == reference


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
