"""Fault models: transient corruption, permanent schedules, composition."""

import math
import random

import pytest

from repro import (
    ChannelFault,
    CompositeFaultModel,
    MinimalAdaptive,
    PermanentFaultSchedule,
    TransientFaults,
    WormholeNetwork,
    random_channel_faults,
    torus,
)
from repro.faults.cascading import LoadDependentFaults
from repro.faults.model import FaultModel
from repro.network.flit import Flit, FlitKind
from repro.network.message import Message, reset_uid_counter
from repro.sim.config import SimConfig


def make_network(radix=4):
    topology = torus(radix, 2)
    return WormholeNetwork(
        topology, MinimalAdaptive(topology), num_vcs=1
    )


def a_flit(kind=FlitKind.BODY):
    return Flit(Message(0, 1, 4), kind, 1)


class TestTransientFaults:
    def test_rate_zero_never_corrupts(self):
        model = TransientFaults(0.0)
        rng = random.Random(0)
        channel = make_network().link_channels[0]
        assert not any(
            model.corrupt(a_flit(), channel, rng) for _ in range(1000)
        )

    def test_rate_one_always_corrupts(self):
        model = TransientFaults(1.0)
        rng = random.Random(0)
        channel = make_network().link_channels[0]
        assert all(model.corrupt(a_flit(), channel, rng) for _ in range(50))

    def test_empirical_rate(self):
        model = TransientFaults(0.1)
        rng = random.Random(42)
        channel = make_network().link_channels[0]
        hits = sum(
            model.corrupt(a_flit(), channel, rng) for _ in range(20000)
        )
        assert 0.08 < hits / 20000 < 0.12

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TransientFaults(1.5)


class TestPermanentFaults:
    def test_schedule_applies_at_cycle(self):
        network = make_network()
        link = network.link_channels[0]
        schedule = PermanentFaultSchedule(
            [ChannelFault(10, link.src_node, link.dst_node)]
        )
        schedule.on_cycle(9, network)
        assert not link.dead
        schedule.on_cycle(10, network)
        assert link.dead
        assert len(schedule.applied) == 1

    def test_random_faults_bidirectional(self):
        network = make_network()
        faults = random_channel_faults(network, 3, random.Random(0))
        assert len(faults) == 6
        pairs = {(f.src, f.dst) for f in faults}
        for fault in faults:
            assert (fault.dst, fault.src) in pairs

    def test_random_faults_keep_live_links(self):
        network = make_network()
        faults = random_channel_faults(network, 4, random.Random(1))
        dead_out = {}
        for fault in faults:
            dead_out[fault.src] = dead_out.get(fault.src, 0) + 1
        for node, count in dead_out.items():
            assert count < len(network.topology.links(node))

    def test_find_link_missing(self):
        network = make_network()
        with pytest.raises(KeyError):
            network.find_link(0, 9)  # not adjacent


class TestComposite:
    def test_combines_models(self):
        network = make_network()
        link = network.link_channels[0]
        schedule = PermanentFaultSchedule(
            [ChannelFault(0, link.src_node, link.dst_node)]
        )
        model = CompositeFaultModel([FaultModel(), schedule,
                                     TransientFaults(1.0)])
        model.on_cycle(0, network)
        assert link.dead
        assert model.corrupt(a_flit(), link, random.Random(0))

    def test_no_faults_is_inert(self):
        model = FaultModel()
        network = make_network()
        model.on_cycle(0, network)
        assert not model.corrupt(a_flit(), network.link_channels[0],
                                 random.Random(0))


class TestNextEvent:
    """The wake protocol: when does ``on_cycle`` next act?"""

    class Unannounced(FaultModel):
        """Overrides the hook, not ``next_event``."""

        def on_cycle(self, now, network):
            pass

    def test_models_without_a_cycle_hook_never_act(self):
        inf = float("inf")
        assert FaultModel().next_event(0) == inf
        assert TransientFaults(1e-3).next_event(17) == inf

    def test_a_hook_that_does_not_say_is_unknown(self):
        assert self.Unannounced().next_event(0) is None

    def test_schedule_names_the_head_of_pending(self):
        network = make_network()
        link = network.link_channels[0]
        schedule = PermanentFaultSchedule([
            ChannelFault(300, link.src_node, link.dst_node),
            ChannelFault(20, link.dst_node, link.src_node),
        ])
        assert schedule.next_event(0) == 20
        schedule.on_cycle(20, network)
        assert schedule.next_event(21) == 300
        schedule.on_cycle(300, network)
        assert schedule.next_event(301) == float("inf")

    def test_composite_takes_the_earliest_child(self):
        schedule = PermanentFaultSchedule([ChannelFault(300, 0, 1)])
        model = CompositeFaultModel([TransientFaults(1e-3), schedule])
        assert model.next_event(0) == 300

    def test_unknown_child_wins_over_a_finite_one(self):
        schedule = PermanentFaultSchedule([ChannelFault(300, 0, 1)])
        model = CompositeFaultModel([schedule, self.Unannounced()])
        assert model.next_event(0) is None


class TestCorrupts:
    """The per-traversal question: can ``corrupt`` answer True?"""

    class Silent(FaultModel):
        """Overrides nothing ``corrupts`` looks at."""

        def on_cycle(self, now, network):
            pass

    class OnlyCorrupt(FaultModel):
        def corrupt(self, flit, channel, rng):
            return rng.random() < 0.5

    def test_models_with_the_base_no_op_are_not_asked(self):
        assert not FaultModel().corrupts()
        assert not PermanentFaultSchedule([ChannelFault(3, 0, 1)]).corrupts()
        assert not LoadDependentFaults().corrupts()
        assert not self.Silent().corrupts()

    def test_an_override_is_asked_without_declaring_anything(self):
        assert TransientFaults(1e-3).corrupts()
        assert TransientFaults(0.0).corrupts()  # not ours to see through
        assert self.OnlyCorrupt().corrupts()

    def test_composite_is_asked_when_any_child_is(self):
        silent = [FaultModel(), LoadDependentFaults()]
        assert not CompositeFaultModel(silent).corrupts()
        assert CompositeFaultModel(
            silent + [TransientFaults(1e-3)]
        ).corrupts()
        assert CompositeFaultModel(
            [CompositeFaultModel([self.OnlyCorrupt()])]
        ).corrupts()


class TestCascadeParameters:
    """Type and range of every parameter, checked where the model is
    made: a ``ValueError`` naming the parameter, before any engine."""

    BAD = [
        ("load_gain", "abc"),
        ("boost_cycles", "abc"),
        ("check_interval", 2.5),
        ("repair_cycles", 1.5),
        ("foo", 1),
        ("base_hazard", "abc"),
    ]

    @pytest.mark.parametrize("form", ["dict", "string"])
    @pytest.mark.parametrize("name, value", BAD)
    def test_build_raises_before_an_engine_exists(self, name, value, form):
        spec = {name: value} if form == "dict" else f"{name}={value}"
        with pytest.raises(ValueError, match=name):
            SimConfig(radix=4, dims=2, cascade_faults=spec).build()

    @pytest.mark.parametrize("kwargs", [
        {"check_interval": True},       # bool is not a number
        {"neighbor_boost": True},
        {"check_interval": 0},
        {"boost_cycles": -1},
        {"repair_cycles": -1},
        {"load_gain": float("inf")},
        {"ewma_alpha": float("nan")},
    ], ids=lambda kwargs: "-".join(kwargs))
    def test_constructor_names_the_parameter(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            LoadDependentFaults(**kwargs)

    def test_the_documented_forms_still_build(self):
        model = LoadDependentFaults(
            base_hazard=0, load_gain=8, ewma_alpha=1, check_interval=16,
            neighbor_boost=1, boost_cycles=0, repair_cycles=0,
            max_dead_fraction=0,
        )
        assert model.next_event(17) == 32


class ParentSweep(LoadDependentFaults):
    """``_update_and_draw`` as it stood before the per-channel sink
    lists: the ``sum(sink.occupancy ...)`` form, attribute by attribute."""

    def _update_and_draw(self, now, network):
        alpha = self.ewma_alpha
        cap = max(1, int(self.max_dead_fraction * len(self._channels)))
        dead_total = sum(1 for channel in self._channels if channel.dead)
        for index, channel in enumerate(self._channels):
            if channel.dead:
                continue
            load = sum(
                sink.occupancy for sink in channel.sinks
                if sink is not None
            ) / self._capacity[index]
            ewma = self._ewma[index] + alpha * (load - self._ewma[index])
            self._ewma[index] = ewma
            hazard = self.base_hazard * math.exp(self.load_gain * ewma)
            if self._boost_until[index] >= now:
                hazard *= self.neighbor_boost
            probability = min(0.5, hazard * self.check_interval)
            draw = self._rng.random()
            if probability <= 0.0 or draw >= probability:
                continue
            if dead_total >= cap or not self._may_kill(channel):
                continue
            self._kill(index, channel, now)
            dead_total += 1


class TestCascadeSweep:
    """The sweep's arithmetic is a contract: same floats, same draws."""

    PARAMETERS = dict(
        base_hazard=2e-4, load_gain=8.0, check_interval=8,
        neighbor_boost=10.0, boost_cycles=48, repair_cycles=100,
        seed=5,
    )
    CHECKS = 40

    def _checks(self, model_class, engine_name):
        """``(_ewma, rng state, applied)`` after each of the checks."""
        seen = []

        class Recorded(model_class):
            def on_cycle(self, now, network):
                super().on_cycle(now, network)
                if now % self.check_interval == 0:
                    seen.append((
                        list(self._ewma), self._rng.getstate(),
                        list(self.applied),
                    ))

        reset_uid_counter()
        engine = SimConfig(
            radix=4, dims=2, routing="fcr", misrouting=True, num_vcs=2,
            message_length=8, load=0.5, seed=11, engine=engine_name,
        ).build()
        engine.fault_model = Recorded(**self.PARAMETERS)
        engine.run(self.PARAMETERS["check_interval"] * self.CHECKS)
        return seen

    def test_sink_lists_match_the_brute_force_sweep(self):
        # The brute-force loop under the reference engine, the model's
        # under the fast one: the occupancies it reads between a move
        # and the next arrival phase are sums over directly landed
        # flits there.
        brute = self._checks(ParentSweep, "reference")
        model = self._checks(LoadDependentFaults, "fast")
        assert len(brute) == len(model) == self.CHECKS
        for check, (got, want) in enumerate(zip(model, brute)):
            assert got[0] == want[0], f"check {check}: EWMAs differ"
            assert got[1] == want[1], f"check {check}: rng state differs"
            assert got[2] == want[2], f"check {check}: faults differ"
        final_ewma, _, applied = model[-1]
        assert len(applied) > 2, "no channel died: nothing was boosted"
        assert max(final_ewma) > 0.2, "the network was never loaded"
