"""The ``cr-sim campaign`` CLI: run/resume/status/report/list."""

import json
import time
from csv import DictReader

import pytest

import repro.campaign
import repro.experiments
from repro.cli import main as cli_main
from repro.experiments.common import Scale
from repro.campaign import fabric

#: a scale small enough that the whole fault-matrix runs in seconds
TINY = Scale(name="tiny", radix=4, warmup=50, measure=150, drain=1000,
             message_length=8, loads=(0.1,))


@pytest.fixture
def tiny_builtin_scale(monkeypatch):
    monkeypatch.setattr(repro.experiments, "QUICK", TINY)
    return TINY


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "campaigns.sqlite")


def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "from-file",
        "base": {"radix": 4, "warmup": 50, "measure": 150,
                 "drain": 1000, "message_length": 8},
        "axes": {"routing": ["cr", "dor"], "load": [0.1]},
    }))
    return str(path)


class TestWatch:
    def test_once_renders_finished_heartbeat(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        capsys.readouterr()
        assert cli_main(
            ["campaign", "watch", "from-file", "--db", db, "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign from-file [finished]" in out
        assert "2/2 (100%)" in out

    def test_once_leaves_a_settled_store_as_it_was(self, tmp_path, db,
                                                   capsys):
        """A watch only reads: the store's directory holds the same
        files, byte for byte and untouched, afterwards (no ``-wal`` /
        ``-shm``)."""
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0

        def listing():
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in tmp_path.iterdir()}

        before = listing()
        assert cli_main(
            ["campaign", "watch", "from-file", "--db", db, "--once"]
        ) == 0
        assert listing() == before

    def test_watch_loop_exits_when_finished(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        capsys.readouterr()
        # Not --once: the loop sees state == finished and returns 0.
        assert cli_main(
            ["campaign", "watch", "from-file", "--db", db,
             "--interval", "0.01"]
        ) == 0
        assert "[finished]" in capsys.readouterr().out

    def test_missing_heartbeat_is_an_error(self, db, usage_error):
        assert cli_main(
            ["campaign", "watch", "nothing-here", "--db", db, "--once"]
        ) == 2
        usage_error("campaign watch", "no stored campaign 'nothing-here'")

    def test_once_folds_the_store_not_a_status_file(self, tmp_path, db,
                                                     capsys):
        """The store alone says the campaign is finished and how many
        points failed: the attempt budget is stored with the spec, and
        nothing is written beside the store."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "budget",
            "base": {"radix": 4, "warmup": 50, "measure": 150,
                     "drain": 1000, "message_length": 8},
            "axes": {"routing": ["cr", "nope"], "load": [0.1]},
        }))
        assert cli_main(["campaign", "run", str(path), "--db", db,
                         "--retries", "0"]) == 1
        capsys.readouterr()
        assert cli_main(
            ["campaign", "watch", "budget", "--db", db, "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign budget [finished]" in out
        assert "2/2 (100%) (1 failed)" in out
        assert "last point: " in out
        assert {p.name for p in tmp_path.iterdir()} == {
            "spec.json", "campaigns.sqlite"}
        with repro.campaign.CampaignStore(db) as store:
            assert store.spec("budget").max_attempts == 1

    @pytest.mark.parametrize("argv", [
        ["watch", "x", "--once"],
        ["status"],
        ["report", "a", "b"],
        ["timeline", "x"],
        ["logs", "x"],
    ], ids=lambda argv: argv[0])
    def test_watch_creates_no_store(self, argv, tmp_path, usage_error):
        # Every reader opens the store read-only: a mistyped path is
        # misuse that names it, and no file or directory appears.
        db = str(tmp_path / "typo" / "absent.sqlite")
        assert cli_main(["campaign", *argv, "--db", db]) == 2
        usage_error(f"campaign {argv[0]}", db)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["watch", "x", "--once"],
        ["run", "fault-matrix", "--quick"],
        ["status", "x"],
        ["report", "a", "b"],
        ["timeline", "x"],
        ["worker", "x"],
    ], ids=lambda argv: argv[0])
    def test_a_file_that_is_no_store_is_misuse(self, argv, tmp_path,
                                                usage_error):
        path = spec_file(tmp_path)
        assert cli_main(["campaign", *argv, "--db", path]) == 2
        usage_error(f"campaign {argv[0]}", path, "not a database")

    def test_loop_gives_up_without_a_heartbeat(self, db, capsys):
        # An interval past the 60 s patience gives up on the first miss,
        # after the one "waiting" note the loop prints.
        assert cli_main(
            ["campaign", "watch", "nothing-here", "--db", db,
             "--interval", "61"]
        ) == 2
        waiting, gave_up = capsys.readouterr().err.splitlines()
        assert waiting.startswith("waiting for ")
        assert gave_up.startswith("cr-sim campaign watch: gave up after 60s")

    def test_svg_export(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        svg_path = tmp_path / "hb.svg"
        assert cli_main(
            ["campaign", "watch", "from-file", "--db", db, "--once",
             "--svg", str(svg_path)]
        ) == 0
        assert svg_path.read_text().startswith("<svg")

    def test_in_memory_db_without_status_file_rejected(self, usage_error):
        assert cli_main(
            ["campaign", "watch", "x", "--db", ":memory:", "--once"]
        ) == 2
        usage_error("campaign watch", "in-memory store cannot be watched")

    def test_a_quiet_running_store_renders_stale(self, tmp_path, db,
                                                 capsys):
        """A running campaign whose store shows no activity for longer
        than ``--stale-after`` watches as STALE."""
        spec_file(tmp_path)
        spec = repro.campaign.CampaignSpec.from_dict(
            json.loads((tmp_path / "spec.json").read_text()))
        with repro.campaign.CampaignStore(db) as store:
            store.register(spec)
            first = next(iter(spec.points()))
            store.record_success(spec.name, first, {}, 0.1)
        argv = ["campaign", "watch", spec.name, "--db", db, "--once"]
        assert cli_main(argv) == 0
        assert "STALE" not in capsys.readouterr().out
        time.sleep(0.01)
        assert cli_main(argv + ["--stale-after", "0.001"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("!! STALE heartbeat")
        assert "campaign from-file [running]" in out
        assert "1/2 (50%)" in out


class TestFlagBounds:
    """Fabric and watch flags refuse a bad value by name, before a
    store is read or a worker spawned."""

    @pytest.mark.parametrize("command, flag, value", [
        ("watch", "--interval", "0"),
        ("watch", "--interval", "-1"),
        ("worker", "--batch", "0"),
        ("worker", "--ttl", "0"),
        ("worker", "--ttl", "-1"),
        ("worker", "--poll", "-1"),
        ("run", "--retries", "-1"),
    ])
    def test_refused_by_name(self, command, flag, value, db, usage_error):
        argv = {
            "watch": ["watch", "x", "--once", "--db", db],
            "worker": ["worker", "x", "--db", db],
            # :memory: is refused next, so a missed check runs nothing.
            "run": ["run", "fault-matrix", "--workers", "2",
                    "--db", ":memory:"],
        }[command]
        assert cli_main(["campaign", *argv, flag, value]) == 2
        usage_error(f"campaign {command}", flag)


class TestList:
    def test_lists_builtins_with_sizes(self, capsys):
        assert cli_main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "fault-matrix" in out
        assert "paper-core" in out
        assert "description" in out


class TestRun:
    def test_spec_file_run_and_resume(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        first = capsys.readouterr()
        assert "2 point(s) run, 0 resumed" in first.out
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        second = capsys.readouterr()
        assert "0 point(s) run, 2 resumed" in second.out
        assert "already stored" in second.err

    def test_resume_names_the_leases_it_waits_for(self, tmp_path, db,
                                                  capsys):
        """A run that finds another run's live leases says so before
        it waits them out, instead of printing nothing."""
        from repro.campaign.runner import submit_campaign

        path = spec_file(tmp_path)
        with open(path, encoding="utf-8") as handle:
            spec = repro.campaign.CampaignSpec.from_dict(json.load(handle))
        with repro.campaign.CampaignStore(db) as store:
            points = submit_campaign(spec, store)
            (lease,) = store.acquire_leases(
                spec.name, "ghost",
                [(point.point_id, point.config_hash) for point in points],
                limit=1, ttl=1.0)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        err = capsys.readouterr().err
        assert ("1 point(s) leased by ghost; resuming when the leases "
                "expire (≤ 1 s)") in err

    def test_unknown_name_rejected(self, db, usage_error):
        assert cli_main(["campaign", "run", "banana", "--db", db]) == 2
        usage_error("campaign run", "neither a built-in")

    def test_killed_and_restarted_fault_matrix_resumes(
        self, tiny_builtin_scale, db, monkeypatch, capsys
    ):
        """The acceptance scenario: interrupt mid-campaign, restart,
        verify completed points are not re-simulated."""
        real_run_campaign = repro.campaign.run_campaign
        interrupt_at = 3

        def interrupted(spec, store, progress=None, **kwargs):
            def tripwire(status):
                if progress is not None:
                    progress(status)
                if status.done >= interrupt_at:
                    raise KeyboardInterrupt

            return real_run_campaign(
                spec, store, progress=tripwire, **kwargs
            )

        interrupt_patch = pytest.MonkeyPatch()
        interrupt_patch.setattr(
            repro.campaign, "run_campaign", interrupted
        )
        try:
            with pytest.raises(KeyboardInterrupt):
                cli_main(["campaign", "run", "fault-matrix", "--db", db])
        finally:
            interrupt_patch.undo()

        # restart: the interrupted points resume, nothing re-runs
        simulated = []
        real_point = fabric.run_simulation

        def counting(config):
            simulated.append(config)
            return real_point(config)

        monkeypatch.setattr(fabric, "run_simulation", counting)
        capsys.readouterr()
        assert cli_main(["campaign", "run", "fault-matrix", "--db", db]) \
            == 0
        out = capsys.readouterr().out
        from repro.campaign import get_campaign

        total = get_campaign("fault-matrix", TINY).size
        assert f"{interrupt_at} resumed" in out
        assert len(simulated) == total - interrupt_at


class TestStatusAndReport:
    def test_status_lists_and_details(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        cli_main(["campaign", "run", path, "--db", db])
        capsys.readouterr()
        assert cli_main(["campaign", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "from-file" in out
        assert cli_main(["campaign", "status", "from-file", "--db", db]) \
            == 0
        detail = capsys.readouterr().out
        assert "# Campaign `from-file`" in detail
        assert "provenance" in detail

    def test_report_between_two_campaigns(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        cli_main(["campaign", "run", path, "--db", db])
        other = tmp_path / "other.json"
        body = json.loads((tmp_path / "spec.json").read_text())
        body["name"] = "from-file-2"
        body["base"]["buffer_depth"] = 4
        other.write_text(json.dumps(body))
        cli_main(["campaign", "run", str(other), "--db", db])
        capsys.readouterr()

        md = tmp_path / "report.md"
        csv = tmp_path / "report.csv"
        code = cli_main([
            "campaign", "report", "from-file", "from-file-2",
            "--db", db, "--md", str(md), "--csv", str(csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign comparison: from-file vs from-file-2" in out
        assert "provenance" in out
        assert md.exists() and csv.exists()
        with open(csv, newline="") as handle:
            rows = list(DictReader(handle))
        assert rows and "baseline_hashes" in rows[0]

    def test_report_unknown_campaign_rejected(self, db, usage_error):
        from repro.campaign import CampaignStore

        with CampaignStore(db):
            pass
        assert cli_main(["campaign", "report", "a", "b", "--db", db]) == 2
        usage_error("campaign report", "no stored campaign")

    def test_status_unknown_campaign_rejected(self, tmp_path, db, capsys,
                                              usage_error):
        # Used to print an empty report and exit 0.
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "status", "from-fiel", "--db", db]) \
            == 2
        usage_error("campaign status", "no stored campaign 'from-fiel'",
                    "(have: ['from-file'])")


class TestTimelineAndLogs:
    @pytest.fixture
    def traced_db(self, tmp_path, db, capsys):
        path = spec_file(tmp_path)
        assert cli_main(
            ["campaign", "run", path, "--db", db, "--trace"]
        ) == 0
        capsys.readouterr()
        return db

    def test_timeline_summary_and_perfetto(self, traced_db, tmp_path,
                                           capsys):
        assert cli_main(
            ["campaign", "timeline", "from-file", "--db", traced_db]
        ) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out and "0 still open" in out
        # --perfetto without a value writes the default path
        assert cli_main(
            ["campaign", "timeline", "from-file", "--db", traced_db,
             "--perfetto"]
        ) == 0
        out = capsys.readouterr().out
        default = str(tmp_path / "from-file.timeline.perfetto.json")
        assert default in out
        document = json.loads(open(default, encoding="utf-8").read())
        assert document["traceEvents"]
        # an explicit path is honoured too
        target = str(tmp_path / "custom.json")
        assert cli_main(
            ["campaign", "timeline", "from-file", "--db", traced_db,
             "--perfetto", target]
        ) == 0
        capsys.readouterr()
        assert json.loads(open(target, encoding="utf-8").read())

    def test_timeline_without_spans_errors(self, tmp_path, db, capsys,
                                           usage_error):
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        capsys.readouterr()
        assert cli_main(
            ["campaign", "timeline", "from-file", "--db", db]
        ) == 2
        usage_error("campaign timeline", "--trace")

    def test_logs_filtering_and_json(self, traced_db, tmp_path, capsys):
        assert cli_main(
            ["campaign", "logs", "from-file", "--db", traced_db]
        ) == 0
        captured = capsys.readouterr()
        assert "root/campaign from-file" in captured.out
        assert "run/run " in captured.out
        assert "span(s)" in captured.err
        # the spans as lines: nothing is written beside the store
        assert not (tmp_path / "from-file.logs").exists()
        # --tail keeps only the newest spans; --json prints them as
        # the store holds them
        assert cli_main(
            ["campaign", "logs", "from-file", "--db", traced_db,
             "--tail", "1", "--json"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 1
        with repro.campaign.CampaignStore(traced_db) as store:
            newest = store.spans("from-file")[-1]
        assert json.loads(lines[0]) == newest
        assert newest["kind"] == "journal" and newest["trace_id"]
        # a worker filter that matches nothing still succeeds
        assert cli_main(
            ["campaign", "logs", "from-file", "--db", traced_db,
             "--worker", "ghost"]
        ) == 0
        assert capsys.readouterr().out == ""

    def test_logs_without_log_dir_errors(self, tmp_path, db, capsys,
                                         usage_error):
        # An untraced run journals no spans: nothing to show.
        path = spec_file(tmp_path)
        assert cli_main(["campaign", "run", path, "--db", db]) == 0
        capsys.readouterr()
        assert cli_main(
            ["campaign", "logs", "from-file", "--db", db]
        ) == 2
        usage_error("campaign logs", "--trace")

    def test_watch_stale_after_flag(self, traced_db, capsys):
        # The finished heartbeat renders with any threshold (finished
        # runs never show the banner); the flag parses end to end.
        assert cli_main(
            ["campaign", "watch", "from-file", "--db", traced_db,
             "--once", "--stale-after", "0.001"]
        ) == 0
        out = capsys.readouterr().out
        assert "STALE" not in out and "[finished]" in out
