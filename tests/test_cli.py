"""CLI surface: every subcommand and failure mode."""

import dataclasses
import glob
import os
import re
import shlex

import pytest

from repro import SimConfig, cli
from repro.cli import main as cli_main
from repro.experiments import REGISTRY


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["experiment", "e99"])

    def test_unknown_routing_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "--routing", "banana"])


class TestFlagTable:
    """``cli._CONFIG_FLAGS`` / ``cli._COMMAND_FLAGS`` against
    ``SimConfig``: the table cannot name a field that is not there, and
    a default that is not ``SimConfig``'s own is a reviewed diff."""

    #: (subcommand, flag) -> the value an absent flag takes, wherever
    #: that is not the ``SimConfig`` default.  ``engine`` None is "no
    #: default of its own" (see TestEngineFlag); ``verify`` False builds
    #: what ``SimConfig``'s None builds.
    OWN_DEFAULTS = {
        ("run", "load"): 0.3,
        ("run", "warmup"): 500,
        ("run", "measure"): 2000,
        ("run", "verify"): False,
        ("run", "engine"): None,
        ("sweep", "warmup"): 500,
        ("sweep", "measure"): 2000,
        ("sweep", "engine"): None,
        ("trace", "pattern"): "transpose",
        ("trace", "load"): 0.3,
        ("trace", "engine"): None,
    }

    def test_every_name_is_a_simconfig_field(self):
        fields = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(cli._CONFIG_FLAGS) <= fields
        for names, own in cli._COMMAND_FLAGS.values():
            assert set(names) <= set(cli._CONFIG_FLAGS)
            assert set(own) <= set(names)

    def test_defaults_that_differ_from_simconfig_are_the_listed_ones(self):
        defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
        parser = cli._build_parser()
        found = {}
        for command, (names, _) in cli._COMMAND_FLAGS.items():
            namespace = parser.parse_args([command])
            for name in names:
                value = getattr(namespace, name)
                if value != defaults[name]:
                    found[(command, name)] = value
        assert found == self.OWN_DEFAULTS


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: where users and CI copy command lines from.
DOCUMENTED = [
    "README.md", "EXPERIMENTS.md", "DESIGN.md",
    ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
    "Makefile",
] + sorted(
    os.path.relpath(path, REPO)
    for path in glob.glob(os.path.join(REPO, "docs", "*.md"))
)

INVOKES_CLI = re.compile(
    r"(?:^|\s)(?:cr-sim|(?:python3?|\$\(PYTHON\)) -m repro\.cli)\s+(.*)"
)
PLACEHOLDER = re.compile(r"<[^>]+>|\.\.\.|\u2026")
SHELL_OPERATORS = {"&&", "||", "|", "&", ";", ">", ">>", "2>&1"}


def documented_invocations(path):
    """The argv of every ``cr-sim`` / ``python -m repro.cli`` command
    line in ``path``: fenced code and whole-line code spans of a
    markdown file, every line of a workflow or Makefile."""
    with open(os.path.join(REPO, path), encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".md"):
        text = "\n".join(
            re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
            + re.findall(r"^\s*(?:[-*] )?`([^`\n]+)`$", text, re.M)
        )
    for line in text.replace("\\\n", " ").splitlines():
        match = INVOKES_CLI.search(line)
        if match is None or PLACEHOLDER.search(match.group(1)):
            continue
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token in SHELL_OPERATORS:
                break
            argv.append(token)
        yield argv


class TestDocumentedInvocations:
    def test_every_documented_command_line_parses(self):
        """A flag dropped or renamed in ``cli.py`` fails here, not in a
        CI job tier-1 never runs or on a reader's terminal."""
        parser = cli._build_parser()
        seen, rejected = 0, []
        for path in DOCUMENTED:
            for argv in documented_invocations(path):
                seen += 1
                try:
                    parser.parse_args(argv)
                except SystemExit:
                    rejected.append(f"{path}: cr-sim {' '.join(argv)}")
        assert not rejected, "\n".join(rejected)
        # The extractor itself must keep finding them (57 at PR 22).
        assert seen >= 50


class TestListCommand:
    def test_lists_every_registered_experiment(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in REGISTRY:
            assert exp_id in out

    def test_every_experiment_shows_its_description(self, capsys):
        """Users discover scenarios from the list itself: every entry
        carries the one-line description from its module docstring."""
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id, module in REGISTRY.items():
            first_line = (module.__doc__ or "").strip().splitlines()[0]
            assert first_line, f"{exp_id} has no module docstring"
            assert first_line in out


class TestRunCommand:
    def test_mesh_topology(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "turn", "--topology", "mesh",
                "--radix", "4", "--load", "0.1",
                "--warmup", "50", "--measure", "200", "--drain", "1500",
                "--message-length", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4-ary 2-mesh" in out

    def test_fcr_with_faults(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "fcr", "--radix", "4",
                "--fault-rate", "0.001", "--load", "0.08",
                "--warmup", "50", "--measure", "200", "--drain", "4000",
                "--message-length", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency_mean" in out
        assert "fcr on 4-ary 2-torus" in out

    def test_fast_engine_matches_reference(self, capsys):
        args = [
            "run", "--routing", "cr", "--radix", "4",
            "--load", "0.2", "--warmup", "50", "--measure", "200",
            "--drain", "1500", "--message-length", "8",
        ]
        outputs = []
        for engine in ("reference", "fast"):
            from repro.network.message import reset_uid_counter

            reset_uid_counter()
            assert cli_main(args + ["--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        # Flit-identical engines print flit-identical reports.
        assert outputs[0] == outputs[1]
        assert "latency_mean" in outputs[0]

    def test_profile_prints_hotspot_table(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "cr", "--radix", "4",
                "--load", "0.2", "--warmup", "50", "--measure", "200",
                "--drain", "1500", "--message-length", "8",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine phase hotspots" in out
        assert "routing" in out and "switch" in out


class TestEngineFlag:
    """``--engine`` has no default of its own: absent, the run gets what
    ``SimConfig`` (or the preset) says; given, it always overrides."""

    SIZE = ["--radix", "4", "--message-length", "8"]
    PHASES = ["--warmup", "20", "--measure", "100", "--drain", "1500"]
    COMMANDS = {
        "run": ["run", "--routing", "cr", "--load", "0.1"] + SIZE + PHASES,
        "sweep": ["sweep", "--routing", "dor", "--loads", "0.1",
                  "--no-cache"] + SIZE + PHASES,
        "trace": ["trace", "--routing", "cr", "--load", "0.2",
                  "--cycles", "100"] + SIZE,
        "trace-preset": ["trace", "e01", "--seed", "1"],
    }

    @pytest.mark.parametrize("flag, expected", [
        (None, "FastEngine"), ("fast", "FastEngine"),
        ("reference", "ReferenceEngine"),
    ], ids=["absent", "fast", "reference"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_run_gets_the_engine_named(
        self, command, flag, expected, tmp_path, monkeypatch, capsys
    ):
        from repro import SimConfig

        built = []
        build = SimConfig.build

        def recording(config):
            engine = build(config)
            built.append(type(engine).__name__)
            return engine

        monkeypatch.setattr(SimConfig, "build", recording)
        monkeypatch.chdir(tmp_path)  # a preset writes under results/
        args = self.COMMANDS[command]
        if flag is not None:
            args = args + ["--engine", flag]
        assert cli_main(args) == 0
        # The eager usage check builds the flags' configuration first;
        # the engine that ran is the last one built.
        assert built[-1] == expected


class TestSweepCommand:
    ARGS = [
        "sweep", "--routing", "dor", "--radix", "4",
        "--loads", "0.1,0.15", "--warmup", "50", "--measure", "200",
        "--drain", "1500", "--message-length", "8",
    ]

    def test_parallel_no_cache_smoke(self, capsys):
        code = cli_main(self.ARGS + ["--workers", "2", "--no-cache"])
        assert code == 0
        captured = capsys.readouterr()
        assert "dor load sweep" in captured.out
        assert "[2/2]" in captured.err  # per-point progress on stderr

    def test_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert cli_main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        second = capsys.readouterr()
        assert "2 hit(s)" in second.err
        # cached rows render the same table
        assert second.out == first.out


class TestTraceCommand:
    ARGS = [
        "trace", "--routing", "cr", "--radix", "4", "--cycles", "400",
        "--message-length", "8", "--load", "0.3", "--seed", "5",
    ]

    def test_flags_mode_writes_parsable_artifacts(self, tmp_path, capsys):
        import json

        from repro import read_jsonl

        jsonl = str(tmp_path / "run.jsonl")
        perfetto = str(tmp_path / "run.perfetto.json")
        csv_path = str(tmp_path / "series.csv")
        code = cli_main(self.ARGS + [
            "--jsonl", jsonl, "--perfetto", perfetto,
            "--sample-interval", "100", "--series-csv", csv_path,
            "--events", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "buffer occupancy" in out
        assert "busiest link channels" in out
        assert "last 3 event(s)" in out
        events = read_jsonl(jsonl)
        assert events and all("event" in e for e in events)
        with open(perfetto) as handle:
            assert json.load(handle)["traceEvents"]
        with open(csv_path) as handle:
            assert handle.readline().startswith("index,")

    def test_preset_defaults_artifacts_under_results(
        self, tmp_path, monkeypatch, capsys
    ):
        import json
        import os

        from repro import read_jsonl

        monkeypatch.chdir(tmp_path)
        assert cli_main(["trace", "e01", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "e01 (cr, load 0.3)" in out
        jsonl = os.path.join("results", "traces", "e01.jsonl")
        perfetto = os.path.join("results", "traces", "e01.perfetto.json")
        assert read_jsonl(jsonl)
        with open(perfetto) as handle:
            assert json.load(handle)["traceEvents"]

    def test_unknown_preset_fails_with_choices(self, usage_error):
        assert cli_main(["trace", "e99"]) == 2
        usage_error("trace", "fault-matrix")

    def test_profile_writes_hotspot_and_prometheus(
        self, tmp_path, capsys
    ):
        from repro.obs import parse_prometheus_text

        hotspot = str(tmp_path / "run.hotspot.md")
        prom = str(tmp_path / "run.prom.txt")
        code = cli_main(self.ARGS + [
            "--profile", "--hotspot", hotspot, "--prom", prom,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine phase hotspots" in out
        with open(hotspot) as handle:
            assert handle.read().startswith("# Engine phase hotspots")
        with open(prom) as handle:
            parsed = parse_prometheus_text(handle.read())
        assert "cr_messages_delivered_total" in parsed

    def test_profile_merges_counter_track_into_perfetto(
        self, tmp_path, capsys
    ):
        import json

        perfetto = str(tmp_path / "run.perfetto.json")
        code = cli_main(self.ARGS + [
            "--profile", "100", "--perfetto", perfetto,
        ])
        assert code == 0
        with open(perfetto) as handle:
            entries = json.load(handle)["traceEvents"]
        assert any(e.get("ph") == "C" for e in entries)

    def test_hotspot_without_profile_exits_2(self, usage_error):
        code = cli_main(self.ARGS + ["--hotspot"])
        assert code == 2
        usage_error("trace", "--profile")


class TestExperimentCommand:
    def test_cheap_experiment_quick_scale(self, capsys):
        assert cli_main(["experiment", "t01"]) == 0
        out = capsys.readouterr().out
        assert "interface" in out
        assert "fcr" in out
        assert out.splitlines()[-1] == "claim: holds"

    def test_a_failed_claim_is_a_line_not_an_exit_status(
        self, capsys, monkeypatch
    ):
        """A claim is written for the quick scale; at another (here a
        4-ary torus, where CR never overtakes DOR) it may fail, and the
        table is still the command's result."""
        import repro.experiments

        monkeypatch.setattr(
            repro.experiments, "QUICK",
            repro.experiments.Scale(
                name="tiny", radix=4, warmup=50, measure=250, drain=2500,
                message_length=8, loads=(0.1, 0.25), seed=3,
            ),
        )
        assert cli_main(["experiment", "e01"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("E01 mean latency")
        assert out.splitlines()[-1].startswith(
            'claim: FAILS — assert top["cr_2vc"]["latency_mean"] < '
        )

    def test_workers_override_accepted(self, capsys):
        assert cli_main(
            ["experiment", "t01", "--workers", "2", "--no-cache"]
        ) == 0
        assert "interface" in capsys.readouterr().out


class TestVerifyCommand:
    def test_list_shows_presets_and_mutations(self, capsys):
        assert cli_main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out
        assert "credit-loss" in out
        assert "kill-protocol" in out

    def test_clean_preset_passes(self, capsys):
        assert cli_main(["verify", "e01", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "pass   e01" in out
        assert "all invariants hold" in out

    def test_mutated_preset_is_caught(self, capsys):
        assert cli_main(
            ["verify", "e01", "--quick", "--mutation", "credit-loss"]
        ) == 0
        out = capsys.readouterr().out
        assert "CAUGHT e01" in out
        assert "caught in 1/1" in out

    def test_unknown_preset_exits_2(self, usage_error):
        assert cli_main(["verify", "e99"]) == 2
        usage_error("verify", "unknown experiment", "e01")

    def test_unknown_mutation_exits_2(self, usage_error):
        assert cli_main(["verify", "e01", "--mutation", "nope"]) == 2
        usage_error("verify", "unknown mutation", "credit-loss")


#: out-of-range network shapes, on every subcommand that has the flag:
#: (argv, what the one stderr line must name).
BAD_SHAPES = [
    (base + [flag, value], named)
    for base, flags in (
        (["run"], None),
        (["sweep", "--loads", "0.1", "--no-cache"],
         ("--num-vcs", "--message-length", "--radix", "--dims")),
        (["trace"],
         ("--message-length", "--radix", "--dims", "--load",
          "--sample-interval")),
    )
    for flag, value, named in (
        ("--buffer-depth", "0", "buffer_depth"),
        ("--num-vcs", "0", "VCs"),
        ("--message-length", "0", "message length"),
        ("--radix", "1", "radix"),
        ("--dims", "0", "dims"),
        ("--num-inject", "0", "injection"),
        ("--load", "-0.1", "load"),
        ("--sample-interval", "-5", "sample interval"),
    )
    if flags is None or flag in flags
] + [
    # a negative run phase (``trace --cycles`` is its ``measure``)
    (["run", "--measure", "-5"], "measure"),
    (["sweep", "--loads", "0.1", "--no-cache", "--measure", "-5"],
     "measure"),
    (["trace", "--cycles", "-1"], "measure"),
]

#: misuse a subcommand detects itself, beyond the shapes above:
#: (argv, what the one stderr line must name).
MISUSE = [
    (["sweep", "--loads", "abc"], "--loads"),
    (["sweep", "--loads", ""], "--loads"),
    (["sweep", "--loads", "0.1", "--workers", "-3"], "--workers"),
    (["experiment", "t01", "--workers", "-1"], "--workers"),
    (["campaign", "run", "fault-matrix", "--db", ":memory:",
      "--workers", "-1"], "--workers"),
    (["campaign", "run", "fault-matrix", "--db", ":memory:",
      "--retries", "-1"], "--retries"),
    (["campaign", "status", "ghost", "--db", ":memory:"],
     "no stored campaign 'ghost'"),
    (["campaign", "logs", "x", "--db", ":memory:"], "in-memory"),
]

#: spec files ``campaign run`` must refuse: (file text, what the one
#: stderr line must carry of the spec's own message).
BAD_SPECS = {
    "malformed-json": ('{"name": "x", ', "Expecting"),
    "unknown-field": (
        '{"name": "x", "base": {"bogus": 1}, "axes": {"load": [0.1]}}',
        "unknown SimConfig field 'bogus'",
    ),
    "empty-axis": ('{"name": "x", "axes": {"load": []}}', "non-empty"),
    "wrong-shape": ('{"name": "x", "axes": 5}', "axes must be a mapping"),
    "seed-in-base": (
        '{"name": "x", "base": {"seed": 7}, "axes": {"load": [0.1]}}',
        "must not set 'seed'",
    ),
}


def command_of(argv):
    """The subcommand ``argv`` invokes, as its stderr line names it."""
    return " ".join(argv[:2] if argv[0] == "campaign" else argv[:1])


class TestUsageExitCodes:
    """Consistency pin: misuse exits 2 with a message on stderr.

    argparse gives unknown flags exit 2 for free; the subcommands that
    validate names themselves (trace/verify presets, campaign names)
    must follow the same convention rather than exiting 1.
    """

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus-flag"],
        ["experiment", "t01", "--bogus-flag"],
        ["trace", "--bogus-flag"],
        ["campaign", "run", "fault-matrix", "--bogus-flag"],
        ["verify", "--bogus-flag"],
    ])
    def test_unknown_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_campaign_name_exits_2(self, usage_error):
        assert cli_main(["campaign", "run", "no-such-campaign"]) == 2
        usage_error("campaign run", "neither a built-in campaign")

    def test_unknown_report_campaign_exits_2(self, tmp_path, usage_error):
        db = str(tmp_path / "empty.db")
        assert cli_main(
            ["campaign", "report", "missing-a", "missing-b", "--db", db]
        ) == 2
        usage_error("campaign report", "no stored campaign")

    def test_trace_unknown_preset_exits_2(self, usage_error):
        assert cli_main(["trace", "e99"]) == 2
        usage_error("trace", "unknown experiment")

    @pytest.mark.parametrize("argv, named", MISUSE,
                             ids=[" ".join(argv) for argv, _ in MISUSE])
    def test_misuse_a_subcommand_detects_exits_2(self, argv, named,
                                                 usage_error):
        # Each of these used to be a traceback (exit 1) or a silent
        # success: "(no rows)", "one worker per CPU", an empty table.
        assert cli_main(argv) == 2
        usage_error(command_of(argv), named)

    @pytest.mark.parametrize("kind", BAD_SPECS)
    def test_refused_spec_file_exits_2(self, kind, tmp_path, usage_error):
        # Each of these used to leave as a ValueError traceback, exit 1.
        text, named = BAD_SPECS[kind]
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert cli_main(
            ["campaign", "run", str(path), "--db", ":memory:"]
        ) == 2
        usage_error("campaign run", str(path), named)

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "zipf"],
        ["sweep", "--loads", "0.1", "--workload", "zipf"],
        ["trace", "--workload", "zipf"],
        ["campaign", "run", "fault-matrix", "--workload", "zipf"],
    ])
    def test_unknown_workload_exits_2(self, argv, usage_error):
        assert cli_main(argv) == 2
        # the message lists the choices
        usage_error(command_of(argv), "unknown workload kind", "mmpp")

    @pytest.mark.parametrize("spec, named", [
        ("mmpp:mean_onn=3", "mean_onn"),
        ("bernoulli:foo=1", "foo"),
        ("client-server:foo=1", "foo"),
        ("incast:bogus=1", "bogus"),
        ("pareto:alpha=0.5", "alpha"),
        ("client-server:process=nope", "nope"),
        ("trace:/no/such/workload.jsonl", "/no/such/workload.jsonl"),
    ])
    @pytest.mark.parametrize("argv", [
        ["run"],
        ["sweep", "--loads", "0.1"],
        ["trace"],
        ["campaign", "run", "fault-matrix"],
    ], ids=["run", "sweep", "trace", "campaign-run"])
    def test_bad_workload_parameters_exit_2(self, argv, spec, named,
                                            usage_error):
        assert cli_main(argv + ["--workload", spec]) == 2
        usage_error(command_of(argv), named)

    def test_malformed_cascade_spec_exits_2(self, usage_error):
        assert cli_main(
            ["run", "--cascade-faults", "base_hazard"]
        ) == 2
        usage_error("run", "key=value")

    @pytest.mark.parametrize("spec, named", [
        ("load_gain=abc", "load_gain"),
        ("boost_cycles=abc", "boost_cycles"),
        ("check_interval=2.5", "check_interval"),
        ("repair_cycles=1.5", "repair_cycles"),
        ("foo=1", "'foo'"),
        ("base_hazard=abc", "base_hazard"),
    ])
    def test_bad_cascade_parameters_exit_2(self, spec, named, usage_error):
        # Each of these used to get past the eager check: a traceback
        # mid-run, a model firing on fractional cycles, or a message
        # that did not say which parameter.
        assert cli_main([
            "run", "--radix", "4", "--measure", "100",
            "--cascade-faults", spec,
        ]) == 2
        usage_error("run", named)

    @pytest.mark.parametrize("argv, named", BAD_SHAPES,
                             ids=[" ".join(argv) for argv, _ in BAD_SHAPES])
    def test_out_of_range_shape_exits_2(self, argv, named, usage_error):
        # Each of these used to raise ValueError out of SimConfig.build()
        # inside the command (a traceback and exit 1) or, for a negative
        # run phase, to print a table of zeros and exit 0.
        assert cli_main(argv) == 2
        usage_error(argv[0], named)
