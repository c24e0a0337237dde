"""Experiment registry, frozen rows and the runner's options.

Full-fidelity runs live in benchmarks/bench_experiments.py; here each
experiment runs once on a 4x4 torus with very short runs
(``tools/experiments_golden.TINY``, through the ``tiny_rows`` fixture)
and its rows are held to ``tests/golden/experiments.json``, recorded
before the experiments were moved onto one runner.
"""

import pytest
from experiments_golden import TINY, first_difference, load_golden

from repro.experiments import PAPER, QUICK, REGISTRY
from repro.sim.parallel import SweepCache

GOLDEN = load_golden()

# The tier-1 floor knows the golden compare under three test names, from
# when the experiments ran at three sizes; nothing else depends on the
# split.  A new experiment joins `moderate` (or `cheap`) by itself.
CHEAP = [i for i, e in REGISTRY.items() if not hasattr(e.module, "points")]
HEAVY = ("e01 e03 e04 e05 e06 e13 e14 e17 e18 e19 e20 e21 e22 e23 "
         "t03").split()
MODERATE = [i for i in REGISTRY if i not in CHEAP and i not in HEAVY]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(REGISTRY) == set(GOLDEN)

    def test_modules_expose_run_and_table(self):
        for experiment in REGISTRY.values():
            assert callable(experiment.run)
            assert callable(experiment.table)
            assert callable(experiment.claim)

    def test_scales(self):
        assert QUICK.radix == 8
        assert PAPER.radix == 16
        assert PAPER.measure > QUICK.measure

    def test_scale_base_config(self):
        config = TINY.base_config(routing="dor", load=0.1)
        assert config.radix == 4
        assert config.routing == "dor"

    def test_scaled_override(self):
        smaller = QUICK.scaled(radix=4)
        assert smaller.radix == 4
        assert smaller.measure == QUICK.measure


def assert_rows_match_golden(exp_id, tiny_rows):
    rows = tiny_rows(exp_id)
    assert rows
    assert first_difference(rows, GOLDEN[exp_id]) is None


@pytest.mark.parametrize("exp_id", CHEAP)
def test_cheap_experiments_produce_tables(exp_id, tiny_rows):
    assert_rows_match_golden(exp_id, tiny_rows)


@pytest.mark.parametrize("exp_id", MODERATE)
def test_moderate_experiments_run_tiny(exp_id, tiny_rows):
    assert_rows_match_golden(exp_id, tiny_rows)


@pytest.mark.parametrize("exp_id", HEAVY)
def test_heavy_experiments_run_tiny(exp_id, tiny_rows):
    assert_rows_match_golden(exp_id, tiny_rows)


@pytest.mark.parametrize("exp_id", ["e07", "e10"])
def test_a_report_only_experiment_honours_the_sweep_cache(exp_id, tmp_path):
    """``--workers`` / ``--no-cache`` / ``PAPER``'s ``cache=True`` used
    to stop at the hand-written loops: the cache directory was never
    even created."""
    cache = SweepCache(str(tmp_path / "cache"))
    scale = TINY.scaled(cache=cache)
    first = REGISTRY[exp_id].run(scale)
    assert (cache.hits, cache.misses) == (0, len(first))
    assert REGISTRY[exp_id].run(scale) == first
    assert (cache.hits, cache.misses) == (len(first), len(first))


def test_a_result_reader_runs_in_process(tmp_path):
    """e12 walks the delivery ledger, which no cached report carries."""
    cache = SweepCache(str(tmp_path / "cache"))
    REGISTRY["e12"].run(TINY.scaled(cache=cache))
    assert (cache.hits, cache.misses) == (0, 0)


class TestExperimentSemantics:
    def test_e07_integrity_columns_zero(self, tiny_rows):
        for row in tiny_rows("e07"):
            assert row["corrupt_deliveries"] == 0
            assert row["late_corruption"] == 0

    def test_e08_everything_delivered(self, tiny_rows):
        for row in tiny_rows("e08"):
            assert row["undelivered"] == 0

    def test_e12_no_fifo_violations(self, tiny_rows):
        for row in tiny_rows("e12"):
            assert row["fifo_violations"] == 0

    def test_e11_measured_overhead_close_to_analytic(self, tiny_rows):
        from repro.core.padding import PaddingParams, cr_wire_length

        measured = [r for r in tiny_rows("e11") if r["hops"] == "sim"][0]
        frac = measured["measured_pad_overhead"]
        # Bound by the analytic overhead at the maximum distance.
        params = PaddingParams(buffer_depth=2)
        hi_wire = cr_wire_length(TINY.message_length, 4, params)
        lo = 1 - TINY.message_length / hi_wire
        assert 0.0 <= frac <= lo + 0.25
