"""Fault models: transient corruption, permanent schedules, composition."""

import random

import pytest

from repro import (
    ChannelFault,
    CompositeFaultModel,
    FirstFree,
    MinimalAdaptive,
    NoFaults,
    PermanentFaultSchedule,
    TransientFaults,
    WormholeNetwork,
    kill_router,
    random_channel_faults,
    torus,
)
from repro.network.flit import Flit, FlitKind
from repro.network.message import Message


def make_network(radix=4):
    topology = torus(radix, 2)
    return WormholeNetwork(
        topology, MinimalAdaptive(topology), FirstFree(), num_vcs=1
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

    def test_payload_only_mode(self):
        model = TransientFaults(1.0, payload_only=True)
        rng = random.Random(0)
        channel = make_network().link_channels[0]
        assert model.corrupt(a_flit(FlitKind.HEAD), channel, rng)
        assert not model.corrupt(a_flit(FlitKind.PAD), channel, rng)

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
        faults = random_channel_faults(
            network, 3, random.Random(0), bidirectional=True
        )
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

    def test_kill_router_darkens_all_its_links(self):
        network = make_network()
        killed = kill_router(network, 5)
        assert killed == 8  # 4 out + 4 in on a 2D torus
        for channel in network.link_channels:
            if channel.src_node == 5 or channel.dst_node == 5:
                assert channel.dead

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
        model = CompositeFaultModel([NoFaults(), schedule,
                                     TransientFaults(1.0)])
        model.on_cycle(0, network)
        assert link.dead
        assert model.corrupt(a_flit(), link, random.Random(0))

    def test_no_faults_is_inert(self):
        model = NoFaults()
        network = make_network()
        model.on_cycle(0, network)
        assert not model.corrupt(a_flit(), network.link_channels[0],
                                 random.Random(0))


class TestNextEvent:
    """The wake protocol: when does ``on_cycle`` next act?"""

    class Unannounced(NoFaults):
        """Overrides the hook, not ``next_event``."""

        def on_cycle(self, now, network):
            pass

    def test_models_without_a_cycle_hook_never_act(self):
        inf = float("inf")
        assert NoFaults().next_event(0) == inf
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
