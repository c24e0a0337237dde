"""The default traffic source against its frozen output.

``workload=None`` and ``workload="bernoulli"`` build the same
generator, and trace replay goes through it as scheduled arrivals;
the reference for all three is ``tests/golden/traffic.json``, recorded
(``tools/traffic_golden.py``) at the last commit that still had the
separate legacy generators, so every published number that went
through them stays reproducible draw for draw.  Tier-1 checks the fast
engine; CI's ``workload-smoke`` job runs the whole file under both.
"""

import os
import sys

import pytest

from repro.sim.simulator import run_simulation
from repro.verify.fuzz import DEFAULT_CASES
from repro.workload import WorkloadGenerator

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)
import traffic_golden  # noqa: E402

_GOLDEN = traffic_golden.load_golden()
GOLDEN, GOLDEN_TRACES = _GOLDEN["runs"], _GOLDEN["traces"]


def assert_matches_golden(name, **overrides):
    config = traffic_golden.corpus()[name].with_(**overrides)
    assert traffic_golden.run_digest(config, "fast") \
        == GOLDEN[name]["fast"], f"{name} {overrides}"


def assert_backcompat(name):
    assert_matches_golden(name)
    assert_matches_golden(name, workload="bernoulli")


class TestBernoulliShim:
    def test_e01_preset_byte_identical(self):
        assert_backcompat("e01")

    @pytest.mark.parametrize("index", range(DEFAULT_CASES))
    def test_fuzz_corpus_byte_identical(self, index):
        assert_backcompat(f"fuzz-{index:02d}")

    @pytest.mark.parametrize("scheme", ("cr", "dor"))
    def test_e23_trace_replay_byte_identical(self, scheme):
        assert_matches_golden(f"e23-{scheme}")

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_record_trace_byte_identical(self, name):
        config = traffic_golden.trace_corpus()[name]
        assert traffic_golden.trace_digest(config) == GOLDEN_TRACES[name]

    def test_shim_builds_workload_generator(self, tiny_config):
        config = tiny_config.with_(workload="bernoulli")
        result = run_simulation(config, keep_engine=True)
        assert isinstance(result.engine.generator, WorkloadGenerator)
        assert result.engine.generator.generated == (
            result.report["messages_created"]
        )
