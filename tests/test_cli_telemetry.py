"""CLI telemetry surface: --alerts, --serve, and watch --alerts."""

import json

import pytest

from repro.campaign import CampaignSpec, CampaignStore
from repro.cli import main as cli_main
from repro.obs.alerts import builtin_rules, rules_to_json

QUICK_RUN = [
    "run", "--routing", "cr", "--radix", "4", "--load", "0.2",
    "--warmup", "50", "--measure", "200", "--drain", "2000",
    "--message-length", "8",
]


class TestRunAlerts:
    def test_builtin_alerts_print_a_summary(self, capsys):
        assert cli_main(
            QUICK_RUN + ["--alerts", "--sample-interval", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "alerts" in out  # episodes or the explicit none-fired line

    def test_rules_file_round_trips_through_the_cli(
            self, capsys, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(rules_to_json(builtin_rules()))
        assert cli_main(
            QUICK_RUN + ["--alerts", str(path),
                         "--sample-interval", "100"]
        ) == 0

    def test_always_firing_rule_reports_the_episode(
            self, capsys, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [{
            "name": "heartbeat", "metric": "delivery_ratio",
            "op": "<=", "value": 1.0, "severity": "info",
        }]}))
        assert cli_main(
            QUICK_RUN + ["--alerts", str(path),
                         "--sample-interval", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "alerts (1 episode(s))" in out
        assert "[info] heartbeat" in out
        assert "still firing" in out

    def test_missing_rules_file_is_a_usage_error(self, usage_error):
        assert cli_main(
            QUICK_RUN + ["--alerts", "/no/such/rules.json"]
        ) == 2
        usage_error("run", "no alert rules file")

    def test_malformed_rules_file_is_a_usage_error(
            self, tmp_path, usage_error):
        # Used to pass the eager check (--alerts was not a "checked"
        # flag) and leave as a ValueError traceback from the run.
        path = tmp_path / "rules.json"
        path.write_text('{"rules": []}')
        assert cli_main(QUICK_RUN + ["--alerts", str(path)]) == 2
        usage_error("run", "alert rules spec is empty")


class TestRunServe:
    def test_serve_announces_the_endpoints(self, capsys):
        # Port 0 binds an ephemeral loopback port; the CLI announces
        # the resolved URL on stderr before the run starts.
        assert cli_main(QUICK_RUN + ["--serve", "127.0.0.1:0"]) == 0
        err = capsys.readouterr().err
        assert "telemetry: http://127.0.0.1:" in err
        assert "/metrics" in err

    def test_trace_accepts_serve(self, capsys):
        assert cli_main([
            "trace", "--routing", "cr", "--radix", "4",
            "--load", "0.2", "--cycles", "400",
            "--message-length", "8", "--sample-interval", "100",
            "--serve", "127.0.0.1:0",
        ]) == 0
        assert "telemetry:" in capsys.readouterr().err

    def test_bad_serve_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(QUICK_RUN + ["--serve"])  # needs a value

    def test_malformed_serve_spec_exits_2_with_a_message(self, usage_error):
        assert cli_main(QUICK_RUN + ["--serve", "host:port:extra"]) == 2
        usage_error("run", "is not [HOST:]PORT")


class TestWatchAlerts:
    def store(self, tmp_path):
        """A finished two-point campaign whose first point journaled a
        firing episode."""
        spec = CampaignSpec.from_dict({
            "name": "al",
            "base": {"radix": 4, "warmup": 50, "measure": 150,
                     "drain": 1000, "message_length": 8},
            "axes": {"load": [0.1, 0.2]},
        })
        db = str(tmp_path / "al.sqlite")
        with CampaignStore(db) as store:
            store.register(spec)
            first, second = spec.points()
            store.record_success("al", first, {}, 0.1, alerts=[{
                "rule": "cascade-outage", "severity": "critical",
                "state": "firing", "fired_at": 400, "resolved_at": None,
                "value": 2.0, "message": "outage",
            }])
            store.record_success("al", second, {}, 0.1)
        return db

    def test_watch_alerts_filter(self, capsys, tmp_path):
        assert cli_main([
            "campaign", "watch", "al", "--db", self.store(tmp_path),
            "--once", "--alerts",
        ]) == 0
        out = capsys.readouterr().out
        assert "— alerts" in out
        assert "cascade-outage" in out
        assert "elapsed" not in out

    def test_watch_shows_alerts_in_the_full_view(
            self, capsys, tmp_path):
        assert cli_main([
            "campaign", "watch", "al", "--db", self.store(tmp_path),
            "--once",
        ]) == 0
        out = capsys.readouterr().out
        assert "alerts: 1 episode(s)" in out
        assert "cascade-outage" in out
        assert "2/2 (100%)" in out
