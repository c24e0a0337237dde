"""The harness checked against itself, at the ``--smoke`` size.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Not part of tier-1 (whose ``testpaths`` is ``tests``): it tests the
benchmark, not the program.
"""

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

from repro.sim.simulator import run_simulation  # noqa: E402

CONTRACT = run.load_contract()
NAMES = [w["name"] for w in CONTRACT["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(name, seed=42, trace=False, golden=None):
    return run.run_workload(name, seed, 0.2, trace, scale="smoke",
                            golden=golden)


@pytest.fixture(scope="module")
def first():
    return {name: smoke(name) for name in NAMES}


def test_contract_names_the_workloads_and_metrics():
    assert NAMES == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m for m in CONTRACT["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    names = NAMES + list(end_to_end) + [m["name"] for m in CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)


@pytest.mark.parametrize("name", NAMES)
def test_every_workload_reports_every_end_to_end_metric(first, name):
    record = first[name]
    assert record["correct"] and record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == want
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_simulated_figures_repeat_exactly_and_follow_the_seed(first):
    for name in ("saturated_fast", "cascade_fcr", "campaign_local"):
        sim = first[name]["diagnostics"]["sim"]
        assert smoke(name)["diagnostics"]["sim"] == sim
        other = smoke(name, seed=7)
        assert other["correct"], other["errors"]
        assert other["diagnostics"]["sim"] != sim


def test_both_engines_simulate_the_same_thing(first):
    assert (first["saturated_ref"]["diagnostics"]["sim"]
            == first["saturated_fast"]["diagnostics"]["sim"])
    golden = workloads.load_golden()
    for scale in workloads.SCALES:
        assert (golden[scale]["saturated_ref"]
                == golden[scale]["saturated_fast"])


@pytest.mark.parametrize("seed", [42, 7])
def test_a_corrupted_golden_digest_is_a_failed_operation(seed):
    golden = copy.deepcopy(workloads.load_golden())
    point = next(iter(golden["smoke"]["lowload_fast"].values()))
    point["digest"] = "0" * 64
    record = smoke("lowload_fast", seed=seed, golden=golden)
    assert record["failed"] > 0 and not record["correct"]
    assert "golden" in " ".join(record["errors"])


def test_chunked_drive_reports_what_run_simulation_reports():
    clock = timing.Clock()
    for name in ("cascade_fcr", "saturated_ref"):
        for point_id, config in workloads.engine_points(name, 42, "smoke"):
            timer = timing.PassTimer(clock)
            timer.begin()
            driven = workloads.drive_point(point_id, config, 8, timer,
                                           timing.NoSpans())
            timer.end()
            workloads.reset_uid_counter()
            direct = run_simulation(config)
            assert driven.report == direct.report
            assert driven.cycles == direct.cycles_run


@pytest.mark.parametrize("name", ["saturated_fast", "lowload_fast",
                                  "campaign_local", "campaign_fabric",
                                  "campaign_resume"])
def test_traced_run_reports_every_per_layer_metric(name):
    record = smoke(name, trace=True)
    assert record["correct"], record["errors"]
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == want
    value = {k: m["value"] for k, m in record["metrics"].items()}
    assert value["host.speed"] > 0 and value["pass.count"] >= 2
    if name == "saturated_fast":
        assert value["phase.switch.ns_per_cycle"] > 0
        assert value["engine.ref_over_fast"] > 0
        assert value["core.kills"] > 0
        assert value["store.open_ms"] == 0  # layer not exercised
    if name == "campaign_fabric":
        assert value["fabric.leases"] == workloads.grid_spec(42, "smoke").size
        assert value["fabric.reclaims"] == 0
        assert value["phase.switch.ns_per_cycle"] == 0
    # self times partition the root span
    diag = record["diagnostics"]
    assert sum(diag["span_self_s"].values()) == pytest.approx(
        diag["span_root_s"], rel=0.01)
    assert diag["span_self_s"]["run"] >= 0


def test_chrome_trace_is_written_under_out(tmp_path):
    record = run.run_workload("campaign_resume", 42, 0.2, True, scale="smoke",
                              out_dir=str(tmp_path))
    with open(record["diagnostics"]["trace_file"], encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert {e["name"] for e in events} >= {"run", "setup", "pass", "resume"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_a_run_leaves_nothing_behind(first):
    assert not os.path.exists(os.path.join(HERE, ".work"))


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.2 for x in steady], "higher", 0.1) == "improved"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [x * 1.05 for x in steady], "lower", 0.1) == "unchanged"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [x * 2 for x in noisy], "higher", 0.1) == "improved"
    assert compare.verdict(noisy, [x * 2 for x in noisy], "lower", 0.1) == "regressed"
    assert compare.verdict([100.0], [120.0], "lower", 0.1) == "regressed"
