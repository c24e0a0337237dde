"""Cross-module integration scenarios.

These are the paper's claims stated as executable assertions at small
scale: CR's adaptivity beats deterministic routing on adversarial
traffic, FCR keeps its guarantees while links die mid-flight, CR works
unchanged on irregular topologies, and the CLI glues it all together.
"""

from repro import (
    GraphTopology,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    SimConfig,
    WormholeNetwork,
    run_simulation,
)
from repro.cli import main as cli_main
from repro.verify.reference import ReferenceEngine


class TestAdaptivityAdvantage:
    def test_cr_higher_saturation_on_uniform(self):
        """The paper's headline shape: CR pays padding at low load but
        saturates higher and keeps lower latency near saturation."""
        base = SimConfig(
            radix=8, dims=2, load=0.4, num_vcs=2, message_length=16,
            warmup=300, measure=1500, drain=6000, seed=42,
        )
        cr = run_simulation(base.with_(routing="cr"))
        dor = run_simulation(base.with_(routing="dor"))
        assert cr.throughput > dor.throughput
        assert cr.latency < dor.latency

    def test_cr_beats_dor_on_bit_reversal(self):
        """Bit reversal concentrates deterministic routes; adaptivity
        spreads them (the paper: CR 'would likely produce an even
        larger performance difference for non-uniform traffic')."""
        base = SimConfig(
            radix=8, dims=2, pattern="bit_reversal", load=0.3,
            num_vcs=2, message_length=8,
            warmup=200, measure=1200, drain=6000, seed=17,
        )
        cr = run_simulation(base.with_(routing="cr"))
        dor = run_simulation(base.with_(routing="dor"))
        assert cr.throughput > dor.throughput
        assert cr.latency < dor.latency


class TestMidFlightFaults:
    def test_links_dying_during_traffic(self):
        """Nonstop fault tolerance: faults appear while worms are in
        flight; nothing is lost or corrupted."""
        config = SimConfig(
            radix=4, dims=2, routing="fcr", load=0.1,
            message_length=8, fault_rate=1e-3, misrouting=True,
            warmup=100, measure=800, drain=8000, seed=23,
            permanent_faults=[
                (300, 0, 1), (300, 1, 0), (500, 5, 6), (500, 6, 5),
            ],
        )
        result = run_simulation(config)
        assert result.drained
        assert result.report["undelivered"] == 0
        assert result.ledger.corrupt_deliveries == 0
        result.ledger.validate_fifo()


class TestIrregularTopology:
    def test_cr_on_arbitrary_graph(self):
        """CR needs no topology structure: run it on a random-ish
        irregular graph where no virtual-channel deadlock-avoidance
        scheme is known."""
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),  # ring
            (0, 3), (1, 4),                                   # chords
            (2, 6), (6, 7), (7, 3),                           # appendage
        ]
        topology = GraphTopology.from_edges(8, edges)
        network = WormholeNetwork(
            topology, MinimalAdaptive(topology), num_vcs=1
        )
        engine = ReferenceEngine(
            network,
            protocol=ProtocolConfig(mode=ProtocolMode.CR),
            seed=31,
            watchdog=8000,
        )
        messages = []
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    msg = Message(src, dst, 6, seq=engine.next_seq(src, dst))
                    engine.admit(msg)
                    messages.append(msg)
        assert engine.run_until_drained(40000)
        assert all(m.delivered for m in messages)
        engine.ledger.validate_fifo()


class TestInterfaceScaling:
    def test_wider_interface_helps_cr_at_high_load(self):
        base = SimConfig(
            radix=4, dims=2, routing="cr", load=0.6, num_vcs=2,
            message_length=8, warmup=200, measure=1000, drain=4000,
            seed=9,
        )
        narrow = run_simulation(base)
        wide = run_simulation(base.with_(num_inject=2, num_sink=2))
        assert wide.throughput > narrow.throughput


class TestCli:
    def test_cli_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "t02" in out

    def test_cli_run(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "cr", "--radix", "4",
                "--load", "0.15", "--warmup", "50", "--measure", "200",
                "--drain", "2000", "--message-length", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "messages_delivered" in out

    def test_cli_experiment_t02(self, capsys):
        assert cli_main(["experiment", "t02"]) == 0
        out = capsys.readouterr().out
        assert "CR" in out and "Duato" in out
