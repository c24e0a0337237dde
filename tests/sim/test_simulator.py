"""End-to-end runs through the public entry point."""

import pytest

from repro import SimConfig, run_simulation
from repro.sim.sweep import load_sweep, matrix_points, point_rows, report_row


def tiny(**overrides):
    base = dict(
        radix=4, dims=2, warmup=100, measure=400, drain=3000,
        message_length=8, load=0.15, seed=21,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRunSimulation:
    @pytest.mark.parametrize("routing", ["cr", "dor", "duato", "fcr",
                                         "dor+cr"])
    def test_all_schemes_deliver(self, routing):
        result = run_simulation(tiny(routing=routing))
        assert result.report["messages_delivered"] > 0
        assert result.latency > 0
        assert result.drained

    def test_turn_model_on_mesh(self):
        result = run_simulation(tiny(routing="turn", topology="mesh"))
        assert result.report["messages_delivered"] > 0

    def test_cr_on_hypercube(self):
        result = run_simulation(tiny(routing="cr", topology="hypercube",
                                     dims=4))
        assert result.report["messages_delivered"] > 0

    def test_deterministic_given_seed(self):
        a = run_simulation(tiny(routing="cr", seed=5))
        b = run_simulation(tiny(routing="cr", seed=5))
        assert a.report["messages_delivered"] == \
            b.report["messages_delivered"]
        assert a.latency == b.latency

    def test_seed_changes_outcome(self):
        a = run_simulation(tiny(routing="cr", seed=5))
        b = run_simulation(tiny(routing="cr", seed=6))
        assert a.report["messages_created"] != \
            b.report["messages_created"]

    def test_keep_engine_flag(self):
        with_engine = run_simulation(tiny(), keep_engine=True)
        without = run_simulation(tiny())
        assert with_engine.engine is not None
        assert without.engine is None

    def test_result_accessors(self):
        result = run_simulation(tiny())
        assert result.throughput == result.report["throughput"]


class TestSweeps:
    def test_load_sweep_rows(self):
        rows = load_sweep(tiny(), [0.1, 0.2], label="cr")
        assert [row["load"] for row in rows] == [0.1, 0.2]
        assert all(row["config"] == "cr" for row in rows)
        assert all("latency_mean" in row for row in rows)

    def test_point_rows_lead_with_the_coordinates(self):
        # any axis, not just load: the coordinates open each row
        points = [({"buffer_depth": depth}, tiny(buffer_depth=depth))
                  for depth in (1, 2)]
        rows = point_rows(
            points, lambda coords, report: {**coords, **report_row(report)}
        )
        assert [row["buffer_depth"] for row in rows] == [1, 2]
        assert all("latency_mean" in row for row in rows)

    def test_matrix_points_one_curve_per_label(self):
        points = matrix_points(
            {"cr": tiny(routing="cr"), "dor": tiny(routing="dor")}, [0.1]
        )
        assert [coords for coords, _ in points] == [
            {"load": 0.1, "config": "cr"}, {"load": 0.1, "config": "dor"}]
        assert [config.routing for _, config in points] == ["cr", "dor"]
        assert all(config.load == 0.1 for _, config in points)

    def test_report_row_unknown_field_raises(self):
        result = run_simulation(tiny())
        with pytest.raises(KeyError, match="throughputt"):
            report_row(result.report, fields=["latency_mean", "throughputt"])

    def test_report_row_known_fields(self):
        result = run_simulation(tiny())
        row = report_row(result.report, fields=["latency_mean"])
        assert row == {"latency_mean": result.report["latency_mean"]}

