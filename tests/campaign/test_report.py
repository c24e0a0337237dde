"""Regression reports: aggregation, significance, provenance, rendering."""

import csv

import pytest

from repro import __version__
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    campaign_markdown,
    compare_campaigns,
    comparison_to_csv,
    render_markdown,
)
from repro.campaign.report import intervals_separated, summarize_samples


def make_spec(name):
    return CampaignSpec.from_dict({
        "name": name,
        "base": {"radix": 4},
        "axes": {"routing": ["cr", "dor"], "load": [0.1]},
        "replications": 2,
    })


def seed_campaign(store, name, latency, throughput):
    """Store a synthetic campaign with controlled metric values."""
    spec = make_spec(name)
    store.register(spec)
    for point in spec.points():
        jitter = 0.01 * point.replication
        store.record_success(
            name, point,
            {"latency_mean": latency[point.scenario["routing"]] + jitter,
             "throughput": throughput + jitter / 100.0},
            wall_time=0.1,
        )
    return spec


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as s:
        yield s


class TestSummarizeSamples:
    """The per-scenario aggregation behind every comparison."""

    def test_mean_std_and_extremes(self):
        summary = summarize_samples([1.0, 2.0, 3.0])
        assert summary["mean"] == 2.0
        assert summary["std"] == pytest.approx(1.0)  # n-1 denominator
        assert summary["n"] == 3
        assert (summary["min"], summary["max"]) == (1.0, 3.0)

    def test_sample_variance_denominator(self):
        # Sample variance of 1, 2, 3 is 1.0 (n-1 = 2 denominator), not
        # 2/3 (population): the population estimate made the confidence
        # half-width systematically overconfident at small n.
        import math

        summary = summarize_samples([1.0, 2.0, 3.0])
        expected_half = 1.96 * 1.0 / math.sqrt(3)
        assert summary["rel_halfwidth"] == \
            pytest.approx(expected_half / 2.0)

    def test_single_sample(self):
        summary = summarize_samples([5.0])
        assert summary["std"] == 0.0
        assert summary["rel_halfwidth"] == 0.0

    def test_single_seed_halfwidth_zero(self):
        # One replication per scenario: the interval collapses onto the
        # sample itself instead of dividing by n-1 = 0.
        summary = summarize_samples([42.5])
        assert summary["n"] == 1
        assert summary["mean"] == summary["min"] == summary["max"] == 42.5
        assert summary["rel_halfwidth"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples([])


class TestIntervalsSeparated:
    """The conservative significance rule, on canned samples."""

    def test_separated_means_win(self):
        a = summarize_samples([10.0, 10.1, 9.9])
        b = summarize_samples([5.0, 5.1, 4.9])
        assert intervals_separated(a, b, higher_is_better=True)
        assert not intervals_separated(b, a, higher_is_better=True)
        assert intervals_separated(b, a, higher_is_better=False)
        assert not intervals_separated(a, b, higher_is_better=False)

    def test_clear_gap_detected(self):
        # Latency at a light load against latency near saturation: lower
        # is better, so the light load wins and the reverse never does.
        light = summarize_samples([21.0, 21.4, 20.8])
        heavy = summarize_samples([63.0, 71.5, 58.2])
        assert intervals_separated(light, heavy, higher_is_better=False)
        assert not intervals_separated(heavy, light, higher_is_better=False)

    def test_overlap_is_no_difference_either_way(self):
        a = summarize_samples([10.0, 20.0, 30.0])
        b = summarize_samples([12.0, 22.0, 32.0])
        for higher in (True, False):
            assert not intervals_separated(a, b, higher_is_better=higher)
            assert not intervals_separated(b, a, higher_is_better=higher)

    def test_identical_samples_are_no_difference(self):
        a = summarize_samples([4.0, 5.0, 6.0])
        for higher in (True, False):
            assert not intervals_separated(a, a, higher_is_better=higher)


class TestCompare:
    def test_detects_regression_and_noise(self, store):
        seed_campaign(store, "base", {"cr": 100.0, "dor": 50.0}, 0.3)
        # cr latency doubles (regression); dor unchanged (within noise)
        seed_campaign(store, "cand", {"cr": 200.0, "dor": 50.0}, 0.3)
        rows = compare_campaigns(store, "base", "cand",
                                 metrics=["latency_mean"])
        by_scenario = {r["scenario"]: r for r in rows}
        cr = by_scenario["load=0.1, routing=cr"]
        dor = by_scenario["load=0.1, routing=dor"]
        assert cr["status"] == "regressed" and cr["significant"]
        assert dor["status"] == "~" and not dor["significant"]
        assert cr["delta_pct"] == pytest.approx(100.0, abs=1.0)

    def test_improvement_direction_per_metric(self, store):
        # higher throughput is an improvement; lower latency too
        seed_campaign(store, "base", {"cr": 100.0, "dor": 100.0}, 0.1)
        seed_campaign(store, "cand", {"cr": 50.0, "dor": 100.0}, 0.4)
        rows = compare_campaigns(
            store, "base", "cand", metrics=["latency_mean", "throughput"]
        )
        verdicts = {(r["scenario"], r["metric"]): r["status"]
                    for r in rows}
        assert verdicts[("load=0.1, routing=cr", "latency_mean")] \
            == "improved"
        assert verdicts[("load=0.1, routing=cr", "throughput")] \
            == "improved"

    def test_provenance_on_every_row(self, store):
        seed_campaign(store, "base", {"cr": 1.0, "dor": 1.0}, 0.1)
        seed_campaign(store, "cand", {"cr": 1.0, "dor": 1.0}, 0.1)
        rows = compare_campaigns(store, "base", "cand")
        assert rows
        for row in rows:
            assert row["baseline_version"] == __version__
            assert row["candidate_version"] == __version__
            # two replications -> two distinct config hashes, joined
            assert len(row["baseline_hashes"].split("+")) == 2
            for blob in (row["baseline_hashes"], row["candidate_hashes"]):
                for item in blob.split("+"):
                    assert len(item) == 64

    def test_one_sided_scenarios_reported(self, store):
        seed_campaign(store, "base", {"cr": 1.0, "dor": 1.0}, 0.1)
        extra_spec = CampaignSpec.from_dict({
            "name": "cand",
            "base": {"radix": 4},
            "axes": {"routing": ["cr"], "load": [0.1, 0.9]},
        })
        store.register(extra_spec)
        for point in extra_spec.points():
            store.record_success("cand", point, {"latency_mean": 1.0},
                                 0.1)
        rows = compare_campaigns(store, "base", "cand",
                                 metrics=["latency_mean"])
        statuses = {r["scenario"]: r["status"] for r in rows
                    if not r.get("metric")}
        assert statuses["load=0.9, routing=cr"] == "candidate-only"
        assert statuses["load=0.1, routing=dor"] == "baseline-only"


class TestRendering:
    def test_markdown_includes_provenance_and_verdicts(self, store):
        seed_campaign(store, "base", {"cr": 100.0, "dor": 50.0}, 0.3)
        seed_campaign(store, "cand", {"cr": 200.0, "dor": 50.0}, 0.3)
        rows = compare_campaigns(store, "base", "cand",
                                 metrics=["latency_mean"])
        text = render_markdown(rows, "base", "cand")
        assert "| scenario | metric |" in text
        assert "regressed" in text
        assert f"@{__version__}" in text
        assert "1 regression(s)" in text

    def test_csv_round_trip(self, store, tmp_path):
        seed_campaign(store, "base", {"cr": 100.0, "dor": 50.0}, 0.3)
        seed_campaign(store, "cand", {"cr": 200.0, "dor": 50.0}, 0.3)
        rows = compare_campaigns(store, "base", "cand",
                                 metrics=["latency_mean"])
        path = str(tmp_path / "sub" / "cmp.csv")  # parent auto-created
        count = comparison_to_csv(rows, path)
        with open(path, newline="") as handle:
            back = list(csv.DictReader(handle))
        assert len(back) == count == 2
        assert {"scenario", "metric", "baseline_mean", "candidate_mean",
                "baseline_hashes", "candidate_version"} <= set(back[0])

    def test_single_campaign_markdown(self, store):
        spec = seed_campaign(store, "solo", {"cr": 10.0, "dor": 5.0}, 0.2)
        store.record_failure(
            "solo",
            next(iter(spec.points())).__class__(
                point_id="routing=cr/load=0.9/rep=0",
                grid="",
                scenario={"routing": "cr", "load": 0.9},
                replication=0,
                config=next(iter(spec.points())).config,
            ),
            "RuntimeError('x')", 0.1, attempts=3,
        )
        text = campaign_markdown(store, "solo")
        assert "# Campaign `solo`" in text
        assert "## Failed points" in text
        assert "attempts=3" in text

    def test_markdown_reports_wall_time_per_point(self, store):
        seed_campaign(store, "timed", {"cr": 10.0, "dor": 5.0}, 0.2)
        text = campaign_markdown(store, "timed")
        assert "wall s/point" in text
        # Every point was stored with wall_time=0.1.
        assert "| 0.1 |" in text
