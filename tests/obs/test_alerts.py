"""Alert rules engine: specs, state machine, events, end-to-end runs."""

import json

import pytest

from repro import SimConfig, run_simulation
from repro.obs import ListSink, attach
from repro.obs.alerts import (
    BUILTIN_RULE_NAMES,
    SEVERITIES,
    AlertEngine,
    AlertRule,
    builtin_rules,
    load_rules,
    rules_to_json,
)
from repro.obs.events import AlertEvent


def fresh_engine(**overrides):
    params = dict(radix=4, dims=2, routing="cr", message_length=8)
    params.update(overrides)
    return SimConfig(**params).build()


def make_sample(index=0, start=0, end=100, **overrides):
    params = dict(
        index=index, start=start, end=end,
        injected_flits=0, delivered_flits=0,
        created_messages=10, delivered_messages=10, kills=0,
        accepted_load=0.0, throughput=0.0, kill_rate=0.0,
        latency_mean=20.0, latency_p99=30.0, occupancy=0,
    )
    params.update(overrides)
    return params


def firing(alert_engine):
    """Episodes still firing, in firing order."""
    return [episode for episode in alert_engine.episodes
            if episode["state"] == "firing"]


def feed(alert_engine, engine, samples):
    for index, sample in enumerate(samples):
        alert_engine.on_sample(engine, sample)
    return alert_engine


class TestAlertRule:
    def test_round_trips_through_dict(self):
        rule = AlertRule("r", metric="kill_rate", op=">=", value=1.5,
                         for_intervals=3, severity="critical",
                         description="d")
        data = rule.to_dict()
        assert data["for"] == 3  # JSON uses Prometheus' "for" key
        assert AlertRule.from_dict(data) == rule

    def test_from_dict_accepts_both_for_spellings(self):
        base = {"name": "r", "metric": "kills"}
        assert AlertRule.from_dict(
            {**base, "for": 2}
        ).for_intervals == 2
        assert AlertRule.from_dict(
            {**base, "for_intervals": 2}
        ).for_intervals == 2

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown field"):
            AlertRule.from_dict(
                {"name": "r", "metric": "kills", "threshold": 1}
            )

    @pytest.mark.parametrize("bad", [
        dict(name=""),
        dict(metric=""),
        dict(kind="gradient"),
        dict(op="=="),
        dict(severity="page"),
        dict(for_intervals=0),
        dict(kind="baseline_ratio", value=0.0),
    ])
    def test_validation_rejects(self, bad):
        params = dict(name="r", metric="kills")
        params.update(bad)
        with pytest.raises(ValueError):
            AlertRule(**params)

    def test_describe_names_the_predicate(self):
        rule = AlertRule("r", metric="kill_rate", op=">=", value=1.0,
                         for_intervals=2)
        text = rule.describe(3.25)
        assert "kill_rate >= 1.0" in text
        assert "3.25" in text
        assert "2 intervals" in text

    def test_builtins_are_valid_and_named(self):
        rules = builtin_rules()
        assert tuple(r.name for r in rules) == BUILTIN_RULE_NAMES
        assert "cascade-outage" in BUILTIN_RULE_NAMES
        for rule in rules:
            assert rule.severity in SEVERITIES
            assert rule.description


class TestLoadRules:
    def test_true_and_builtin_mean_the_builtins(self):
        assert load_rules(True) == builtin_rules()
        assert load_rules("builtin") == builtin_rules()

    def test_single_dict_and_rule_pass_through(self):
        rule = AlertRule("r", metric="kills")
        assert load_rules(rule) == [rule]
        assert load_rules({"name": "r", "metric": "kills"}) == [rule]

    def test_json_file_round_trip(self, tmp_path):
        rules = builtin_rules()
        path = tmp_path / "rules.json"
        path.write_text(rules_to_json(rules))
        assert load_rules(str(path)) == rules

    def test_bare_list_document(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{"name": "r", "metric": "kills"}]))
        assert load_rules(str(path)) == [AlertRule("r", metric="kills")]

    def test_empty_and_garbage_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_rules([])
        with pytest.raises(ValueError):
            load_rules(3.14)
        with pytest.raises(ValueError, match="expected dict"):
            load_rules(["not a rule"])


class TestStateMachine:
    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule("dup", metric="kills")
        with pytest.raises(ValueError, match="duplicate"):
            AlertEngine([rule, rule])

    def test_threshold_fires_only_after_for_intervals(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "storm", metric="kill_rate", op=">=", value=1.0,
            for_intervals=2, severity="critical",
        )])
        feed(alerts, engine, [make_sample(index=0, kill_rate=2.0)])
        assert firing(alerts) == []  # one hot window is not enough
        feed(alerts, engine,
             [make_sample(index=1, start=100, end=200, kill_rate=2.0)])
        (episode,) = firing(alerts)
        assert episode["rule"] == "storm"
        assert episode["fired_at"] == 200
        assert episode["resolved_at"] is None
        assert "kill_rate >= 1.0" in episode["message"]

    def test_one_cool_window_resets_the_streak(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "storm", metric="kill_rate", op=">=", value=1.0,
            for_intervals=2,
        )])
        feed(alerts, engine, [
            make_sample(index=0, end=100, kill_rate=2.0),
            make_sample(index=1, start=100, end=200, kill_rate=0.0),
            make_sample(index=2, start=200, end=300, kill_rate=2.0),
        ])
        assert firing(alerts) == []  # hysteresis: streak restarted

    def test_resolve_updates_the_episode_in_place(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "storm", metric="kill_rate", op=">=", value=1.0,
        )])
        feed(alerts, engine, [
            make_sample(index=0, end=100, kill_rate=2.0),
            make_sample(index=1, start=100, end=200, kill_rate=0.0),
        ])
        assert firing(alerts) == []
        (row,) = alerts.rows()
        assert row["state"] == "resolved"
        assert row["fired_at"] == 100
        assert row["resolved_at"] == 200

    def test_missing_metric_never_holds(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "ghost", metric="no_such_metric", op=">", value=0.0,
        )])
        feed(alerts, engine, [make_sample()])
        assert alerts.episodes == []

    def test_absence_fires_on_none_metric(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "silent", metric="latency_mean", kind="absence",
        )])
        feed(alerts, engine, [
            make_sample(index=0, end=100,
                        delivered_messages=0, latency_mean=None,
                        latency_p99=None),
            make_sample(index=1, start=100, end=200),
        ])
        (row,) = alerts.rows()
        assert row["fired_at"] == 100
        assert row["resolved_at"] == 200

    def test_rate_needs_a_previous_window(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "ramp", metric="occupancy", kind="rate", value=50.0,
        )])
        feed(alerts, engine, [
            make_sample(index=0, end=100, occupancy=500),  # no baseline
            make_sample(index=1, start=100, end=200, occupancy=520),
            make_sample(index=2, start=200, end=300, occupancy=600),
        ])
        (row,) = alerts.rows()
        assert row["fired_at"] == 300  # only the +80 jump fires

    def test_baseline_ratio_tracks_the_rolling_minimum(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "saturation", metric="latency_mean", kind="baseline_ratio",
            value=2.0,
        )])
        feed(alerts, engine, [
            make_sample(index=0, end=100, latency_mean=30.0),
            make_sample(index=1, start=100, end=200, latency_mean=20.0),
            make_sample(index=2, start=200, end=300, latency_mean=39.0),
            make_sample(index=3, start=300, end=400, latency_mean=40.0),
        ])
        (row,) = alerts.rows()
        assert row["fired_at"] == 400  # 2x the rolling min of 20

    def test_counter_deltas_enter_the_context(self):
        engine = fresh_engine()
        alerts = AlertEngine([AlertRule(
            "outage", metric="cascade_channel_faults_delta",
            op=">=", value=1.0, severity="critical",
        )])
        engine.stats.counters["cascade_channel_faults"] = 2
        feed(alerts, engine, [make_sample(index=0, end=100)])
        assert [e["rule"] for e in firing(alerts)] == ["outage"]
        # No further increment: the delta is 0 and the alert resolves.
        feed(alerts, engine,
             [make_sample(index=1, start=100, end=200)])
        assert firing(alerts) == []

    def test_transitions_emit_alert_events_on_the_bus(self):
        engine = fresh_engine()
        sink = ListSink()
        attach(engine, sink)
        alerts = AlertEngine([AlertRule(
            "storm", metric="kill_rate", op=">=", value=1.0,
            severity="critical",
        )])
        feed(alerts, engine, [
            make_sample(index=0, end=100, kill_rate=2.0),
            make_sample(index=1, start=100, end=200, kill_rate=0.0),
        ])
        events = [e for e in sink.events if isinstance(e, AlertEvent)]
        assert [(e.state, e.cycle) for e in events] == [
            ("firing", 100), ("resolved", 200),
        ]
        assert events[0].rule == "storm"
        assert events[0].severity == "critical"

    def test_summary_and_severity_rollup(self):
        engine = fresh_engine()
        alerts = AlertEngine([
            AlertRule("a", metric="kill_rate", op=">=", value=1.0,
                      severity="critical"),
            AlertRule("b", metric="occupancy", op=">", value=100.0,
                      severity="info"),
        ])
        feed(alerts, engine,
             [make_sample(kill_rate=2.0, occupancy=500)])
        assert alerts.firing_by_severity() == {
            "info": 1, "warning": 0, "critical": 1,
        }
        summary = alerts.summary()
        assert summary["rules"] == 2
        assert summary["evaluations"] == 1
        assert summary["fired"] == summary["firing"] == 2


class TestEndToEnd:
    def run_with_alerts(self, alerts=True, **overrides):
        params = dict(
            radix=4, dims=2, routing="cr", load=0.2, message_length=8,
            warmup=50, measure=300, drain=3000, seed=2,
            sample_interval=100, alerts=alerts,
        )
        params.update(overrides)
        return run_simulation(SimConfig(**params), keep_engine=True)

    def test_report_carries_alert_rows_and_summary(self):
        result = self.run_with_alerts()
        assert "alerts" in result.report
        assert "alerts_summary" in result.report
        summary = result.report["alerts_summary"]
        assert summary["rules"] == len(BUILTIN_RULE_NAMES)
        assert (summary["evaluations"]
                == len(result.report["timeseries"]))

    def test_alerts_without_sample_interval_attach_a_sampler(self):
        engine = SimConfig(
            radix=4, dims=2, message_length=8, alerts=True,
        ).build()
        assert engine.sampler is not None
        assert engine.alerts in engine.sampler.listeners

    def test_guaranteed_rule_fires_and_journals(self):
        always = [{"name": "heartbeat", "metric": "delivery_ratio",
                   "op": "<=", "value": 1.0, "severity": "info"}]
        result = self.run_with_alerts(alerts=always)
        rows = result.report["alerts"]
        assert [row["rule"] for row in rows] == ["heartbeat"]
        assert rows[0]["state"] == "firing"  # holds to the very end
        assert rows[0]["fired_at"] == 100  # first window boundary

    def test_fast_engine_sees_identical_alert_timeline(self):
        # The fast engine already wakes at sampler boundaries, so the
        # alert evaluation timeline must match the reference engine's.
        reference = self.run_with_alerts(load=0.35)
        fast = self.run_with_alerts(load=0.35, engine="fast")
        assert fast.report["alerts"] == reference.report["alerts"]

    def test_unarmed_run_has_no_alert_surface(self):
        result = self.run_with_alerts(alerts=None)
        assert "alerts" not in result.report
        assert result.engine.alerts is None
