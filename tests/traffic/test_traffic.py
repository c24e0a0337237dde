"""Traffic patterns, length distributions, load normalisation, generation."""

import random

import pytest

from repro import (
    BernoulliArrivals,
    BimodalLength,
    BitReversal,
    Complement,
    FixedLength,
    Hotspot,
    NearestNeighbour,
    SimConfig,
    Transpose,
    Uniform,
    capacity_flits_per_node_cycle,
    injection_rate,
    make_pattern,
    torus,
)
from repro.topology.hypercube import Hypercube


class TestPatterns:
    def setup_method(self):
        self.topo = torus(4, 2)
        self.rng = random.Random(0)

    def test_uniform_never_self(self):
        pattern = Uniform()
        for src in range(self.topo.num_nodes):
            for _ in range(20):
                dst = pattern.destination(self.topo, src, self.rng)
                assert dst != src
                assert 0 <= dst < self.topo.num_nodes

    def test_uniform_covers_all(self):
        pattern = Uniform()
        seen = {
            pattern.destination(self.topo, 0, self.rng) for _ in range(500)
        }
        assert seen == set(range(1, 16))

    def test_transpose(self):
        pattern = Transpose()
        src = self.topo.node_at((1, 3))
        assert pattern.destination(self.topo, src, self.rng) == \
            self.topo.node_at((3, 1))

    def test_transpose_fixed_point_returns_none(self):
        pattern = Transpose()
        diagonal = self.topo.node_at((2, 2))
        assert pattern.destination(self.topo, diagonal, self.rng) is None

    def test_complement(self):
        pattern = Complement()
        src = self.topo.node_at((0, 1))
        assert pattern.destination(self.topo, src, self.rng) == \
            self.topo.node_at((3, 2))

    def test_complement_on_hypercube(self):
        pattern = Complement()
        topo = Hypercube(4)
        assert pattern.destination(topo, 0b0101, self.rng) == 0b1010

    def test_bit_reversal(self):
        pattern = BitReversal()
        assert pattern.destination(self.topo, 0b0001, self.rng) == 0b1000

    def test_bit_reversal_needs_power_of_two(self):
        pattern = BitReversal()
        topo = torus(3, 2)  # 9 nodes
        with pytest.raises(ValueError):
            pattern.destination(topo, 1, self.rng)

    def test_hotspot_fraction(self):
        pattern = Hotspot(hotspot=0, fraction=0.5)
        hits = sum(
            pattern.destination(self.topo, 5, self.rng) == 0
            for _ in range(2000)
        )
        assert 0.4 < hits / 2000 < 0.65

    def test_hotspot_node_sends_elsewhere(self):
        pattern = Hotspot(hotspot=0, fraction=1.0)
        for _ in range(50):
            assert pattern.destination(self.topo, 0, self.rng) != 0

    def test_nearest_neighbour(self):
        pattern = NearestNeighbour()
        for _ in range(50):
            dst = pattern.destination(self.topo, 5, self.rng)
            assert self.topo.min_distance(5, dst) == 1

    def test_factory(self):
        assert isinstance(make_pattern("uniform"), Uniform)
        assert isinstance(
            make_pattern("hotspot", hotspot=3, fraction=0.2), Hotspot
        )
        with pytest.raises(ValueError):
            make_pattern("nope")


class TestLengths:
    def test_fixed(self):
        dist = FixedLength(16)
        assert dist.sample(random.Random(0)) == 16
        assert dist.mean() == 16.0

    def test_fixed_invalid(self):
        with pytest.raises(ValueError):
            FixedLength(0)

    def test_bimodal_mean(self):
        dist = BimodalLength(short=8, long=64, long_fraction=0.25)
        assert dist.mean() == pytest.approx(8 * 0.75 + 64 * 0.25)

    def test_bimodal_samples_both(self):
        dist = BimodalLength(short=8, long=64, long_fraction=0.3)
        rng = random.Random(1)
        values = {dist.sample(rng) for _ in range(200)}
        assert values == {8, 64}

    def test_bimodal_invalid(self):
        with pytest.raises(ValueError):
            BimodalLength(long_fraction=2.0)


class TestLoads:
    def test_torus_capacity_formula(self):
        # k-ary 2-torus: 4 channels/node over avg distance ~2*(k/4), so
        # ~8/k (exactly 8/k when self-pairs are included; the library
        # averages over src != dst, giving a slightly larger distance).
        topo = torus(8, 2)
        assert capacity_flits_per_node_cycle(topo) == \
            pytest.approx(1.0, rel=0.02)
        topo16 = torus(16, 2)
        assert capacity_flits_per_node_cycle(topo16) == \
            pytest.approx(0.5, rel=0.02)

    def test_injection_rate(self):
        topo = torus(8, 2)
        rate = injection_rate(topo, 0.5, mean_message_length=16)
        expected = 0.5 * capacity_flits_per_node_cycle(topo) / 16
        assert rate == pytest.approx(expected)

    def test_invalid_inputs(self):
        topo = torus(4, 2)
        with pytest.raises(ValueError):
            injection_rate(topo, -0.1, 16)
        with pytest.raises(ValueError):
            injection_rate(topo, 0.5, 0.5)


class TestGenerator:
    def test_message_rate_bounds(self):
        with pytest.raises(ValueError):
            BernoulliArrivals(1.5)
        with pytest.raises(ValueError):
            BernoulliArrivals(-0.1)

    def test_generation_volume_and_stop(self):
        config = SimConfig(
            radix=4, dims=2, load=0.2, warmup=0, measure=300,
            drain=0, message_length=8, seed=5,
        )
        engine = config.build()
        engine.run(300)
        created = engine.stats.counters["messages_created"]
        (source,) = engine.generator.sources
        rate = source.process.rate
        expected = rate * 16 * 300
        assert 0.7 * expected < created < 1.3 * expected
        # Generation must stop after warmup+measure.
        engine.run(100)
        assert engine.stats.counters["messages_created"] == created

    def test_sequence_numbers_per_pair(self):
        config = SimConfig(radix=4, dims=2, load=0.3, warmup=0,
                           measure=400, drain=0, message_length=8, seed=6)
        engine = config.build()
        engine.run(400)
        seqs = {}
        for uid in list(engine.live):
            pass  # live holds uids only; inspect via ledger after drain
        engine.run_until_drained(5000)
        for msg in engine.ledger.deliveries:
            seqs.setdefault((msg.src, msg.dst), []).append(msg.seq)
        for pair, values in seqs.items():
            assert sorted(values) == list(range(len(values)))
