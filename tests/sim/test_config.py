"""SimConfig construction and validation."""

import pytest

from repro import (
    DimensionOrder,
    Duato,
    MinimalAdaptive,
    NegativeFirst,
    ProtocolMode,
    SimConfig,
)
from repro.faults.cascading import LoadDependentFaults
from repro.faults.model import CompositeFaultModel
from repro.faults.permanent import ChannelFault
from repro.faults.transient import TransientFaults
from repro.obs.alerts import AlertEngine


class TestSchemes:
    @pytest.mark.parametrize(
        "scheme,routing_cls,mode",
        [
            ("cr", MinimalAdaptive, ProtocolMode.CR),
            ("fcr", MinimalAdaptive, ProtocolMode.FCR),
            ("dor", DimensionOrder, ProtocolMode.PLAIN),
            ("duato", Duato, ProtocolMode.PLAIN),
            ("dor+cr", DimensionOrder, ProtocolMode.CR),
        ],
    )
    def test_scheme_mapping(self, scheme, routing_cls, mode):
        config = SimConfig(routing=scheme)
        routing, proto_mode = config.make_routing(config.make_topology())
        assert isinstance(routing, routing_cls)
        assert proto_mode is mode

    def test_turn_scheme_needs_mesh(self):
        config = SimConfig(routing="turn", topology="mesh")
        routing, _ = config.make_routing(config.make_topology())
        assert isinstance(routing, NegativeFirst)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown routing"):
            SimConfig(routing="bogus").make_routing(
                SimConfig().make_topology()
            )

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SimConfig(topology="donut").make_topology()


class TestDefaults:
    def test_vcs_default_to_scheme_minimum(self):
        config = SimConfig(routing="duato")
        topology = config.make_topology()
        routing, _ = config.make_routing(topology)
        assert config.resolved_num_vcs(routing) == 3

    def test_vcs_override(self):
        config = SimConfig(routing="cr", num_vcs=4)
        topology = config.make_topology()
        routing, _ = config.make_routing(topology)
        assert config.resolved_num_vcs(routing) == 4

    def test_with_copies(self):
        base = SimConfig(load=0.1)
        other = base.with_(load=0.5)
        assert base.load == 0.1
        assert other.load == 0.5


class TestBuild:
    def test_build_wires_everything(self):
        engine = SimConfig(radix=4, dims=2, routing="cr").build()
        assert engine.topology.num_nodes == 16
        assert len(engine.nodes) == 16
        assert engine.generator is not None
        assert engine.stats.measure_end == 5000  # warmup + measure defaults

    def test_fault_model_composition(self):
        config = SimConfig(
            radix=4, dims=2, fault_rate=0.01, permanent_faults=1
        )
        engine = config.build()
        assert isinstance(engine.fault_model, CompositeFaultModel)

    def test_single_fault_model_not_wrapped(self):
        engine = SimConfig(radix=4, dims=2, fault_rate=0.01).build()
        assert isinstance(engine.fault_model, TransientFaults)

    def test_no_fault_model_by_default(self):
        assert SimConfig(radix=4, dims=2).build().fault_model is None

    def test_padding_params_follow_network(self):
        engine = SimConfig(radix=4, dims=2, buffer_depth=4).build()
        assert engine.protocol.padding.buffer_depth == 4

    def test_path_wide_wiring(self):
        engine = SimConfig(radix=4, dims=2, path_wide_cycles=32).build()
        assert engine.protocol.path_wide is not None
        assert engine.protocol.path_wide.cycles == 32

    @pytest.mark.parametrize("phase", ["warmup", "measure", "drain"])
    def test_negative_run_phase_is_refused(self, phase):
        # The engine used to run zero cycles and report zeros.
        with pytest.raises(ValueError, match=f"{phase} must be >= 0"):
            SimConfig(radix=4, dims=2, **{phase: -1}).build()
        # Zero stays legal: `cr-sim trace` runs warmup=0, drain=0.
        SimConfig(radix=4, dims=2, **{phase: 0}).build()


class TestFaultInputs:
    def test_a_placement_is_built_afresh_each_time(self):
        config = SimConfig(radix=4, dims=2, permanent_faults=[(30, 0, 1)])
        first, second = config.build(), config.build()
        assert first.fault_model.pending == [ChannelFault(30, 0, 1)]
        assert first.fault_model is not second.fault_model

    @pytest.mark.parametrize("fields, named", [
        ({"fault_rate": -0.5}, "fault_rate"),
        ({"fault_rate": 1.5}, "fault_rate"),
        ({"permanent_faults": -3}, "permanent_faults must be a count >= 0"),
        # A 4-ary 2-cube keeps every node connected with 16 dead links
        # at most; the rest of the request used to be dropped silently.
        ({"permanent_faults": 100}, "permanent_faults=100: only 16"),
        ({"permanent_faults": [(10, 0, 5)]}, "no link 0->5"),
        ({"permanent_faults": [(10, 0)]}, "placement"),
        ({"permanent_faults": [(-1, 0, 1)]}, "placement"),
        ({"permanent_faults": 2.5}, "permanent_faults"),
    ], ids=[
        "rate-below-0", "rate-above-1", "count-below-0", "count-too-many",
        "placement-not-a-link", "placement-too-short",
        "placement-before-cycle-0", "count-not-an-int",
    ])
    def test_out_of_range_is_refused_by_name(self, fields, named):
        with pytest.raises(ValueError, match=named):
            SimConfig(radix=4, dims=2, **fields).build()

    def test_a_live_model_is_refused(self):
        with pytest.raises(TypeError, match="engine constructor"):
            SimConfig(
                radix=4, dims=2, cascade_faults=LoadDependentFaults()
            ).build()
        with pytest.raises(ValueError, match="alert rules"):
            SimConfig(radix=4, dims=2, alerts=AlertEngine()).build()
