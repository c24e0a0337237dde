"""Bounded misrouting: the permanent-fault escape hatch."""

from repro import (
    Message,
    MisroutingAdaptive,
    ProtocolConfig,
    ProtocolMode,
    RandomFree,
    SimConfig,
    WormholeNetwork,
    run_simulation,
    torus,
)
from repro.verify.reference import ReferenceEngine


class TestBudget:
    def test_first_attempt_is_minimal(self):
        routing = MisroutingAdaptive(torus(4, 2))
        msg = Message(0, 1, 4)
        assert routing.misroute_budget(msg) == 0

    def test_budget_grows_with_kills(self):
        routing = MisroutingAdaptive(torus(4, 2))
        msg = Message(0, 1, 4)
        msg.kills = 2
        assert routing.misroute_budget(msg) == 4
        msg.fkills = 1
        assert routing.misroute_budget(msg) == 6

    def test_budget_capped(self):
        routing = MisroutingAdaptive(torus(4, 2))
        msg = Message(0, 1, 4)
        msg.kills = 50
        assert routing.misroute_budget(msg) == MisroutingAdaptive.budget_cap


class TestCandidateTiers:
    def _setup(self):
        topology = torus(4, 2)
        routing = MisroutingAdaptive(topology)
        network = WormholeNetwork(
            topology, routing, RandomFree(), num_vcs=1
        )
        return topology, routing, network

    def test_no_detour_without_budget(self):
        topology, routing, network = self._setup()
        msg = Message(0, 1, 4)
        msg.misroute_budget = 0
        tiers = routing.candidates(network.routers[0], msg)
        assert len(tiers) == 1

    def test_no_detour_while_productive_alive(self):
        topology, routing, network = self._setup()
        msg = Message(0, 1, 4)
        msg.misroute_budget = 4
        tiers = routing.candidates(network.routers[0], msg)
        assert len(tiers) == 1  # live minimal path: stay minimal

    def test_detour_offered_at_dead_end(self):
        topology, routing, network = self._setup()
        network.find_link(0, 1).dead = True  # only minimal link of 0->1
        msg = Message(0, 1, 4)
        msg.misroute_budget = 2
        tiers = routing.candidates(network.routers[0], msg)
        assert len(tiers) == 2
        assert all(c.is_misroute for c in tiers[1])
        productive = {
            l.port for l in topology.productive_links(0, 1)
        }
        assert all(c.port not in productive for c in tiers[1])

    def test_budget_exhaustion_stops_detours(self):
        topology, routing, network = self._setup()
        network.find_link(0, 1).dead = True
        msg = Message(0, 1, 4)
        msg.misroute_budget = 2
        msg.misroutes_used = 2
        tiers = routing.candidates(network.routers[0], msg)
        assert len(tiers) == 1


class TestEndToEnd:
    def test_distance_one_pair_with_dead_direct_link(self):
        """The case minimal-only routing can never deliver."""
        topology = torus(4, 2)
        routing = MisroutingAdaptive(topology)
        network = WormholeNetwork(topology, routing, RandomFree(), num_vcs=1)
        network.find_link(0, 1).dead = True
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.CR),
            seed=7,
            watchdog=8000,
        )
        msg = Message(0, 1, 4, seq=0)
        engine.admit(msg)
        assert engine.run_until_drained(20000)
        assert msg.delivered
        assert msg.kills >= 1  # first minimal attempt had to die
        assert msg.misroutes_used >= 1 or msg.attempts > 1

    def test_misrouting_config_flag(self):
        config = SimConfig(
            radix=4, dims=2, routing="fcr", misrouting=True,
            permanent_faults=2, load=0.08, message_length=8,
            warmup=100, measure=500, drain=10000, seed=5,
        )
        result = run_simulation(config)
        assert result.drained
        assert result.report["undelivered"] == 0

    def test_misrouting_rejected_for_dor(self):
        config = SimConfig(routing="dor", misrouting=True)
        try:
            config.make_routing(config.make_topology())
        except ValueError as err:
            assert "misrouting" in str(err)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected ValueError")

    def test_padding_covers_detours(self):
        """Wire length grows with the attempt's misroute budget."""
        topology = torus(4, 2)
        routing = MisroutingAdaptive(topology)
        network = WormholeNetwork(topology, routing, RandomFree(), num_vcs=1)
        network.find_link(0, 1).dead = True
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.CR),
            seed=3,
            watchdog=8000,
        )
        msg = Message(0, 1, 4, seq=0)
        engine.admit(msg)
        first_wire = None
        while not msg.delivered:
            engine.step()
            if msg.attempts == 1 and first_wire is None:
                first_wire = msg.wire_length
        assert msg.wire_length > first_wire  # retries sized for detours
