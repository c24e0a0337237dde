"""benchmarks/perf: the repo's one benchmark command.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  Without ``--workload`` it runs every workload in a
process of its own (and, with ``--trace``, each a second time traced)
and writes ``results.json`` under ``--out``: the file ``compare.py``
reads and ``ledger/`` keeps.  See README.md.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
if os.path.isdir(os.path.join(ROOT, "src")):
    sys.path.insert(0, os.path.join(ROOT, "src"))

from timing import CAL_REF_S, Clock, NoSpans, PassTimer, Spans, run_passes

#: set-up passes per run; ``setup_s`` is their best composite.
SETUP_PASSES = 2


@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A directory under ``.work/`` (inside the checkout), removed on exit."""
    parent = os.path.join(HERE, ".work")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run's directory is still in it


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def timed_import(clock: Clock) -> Tuple[float, float]:
    """Import the program; returns (normalised seconds, machine speed).

    Importing cannot be repeated in-process, so it gets one sample,
    scaled by the calibration kernel's best of a few runs either side.
    """
    before = min(clock.calibrate() for _ in range(5))
    start = time.perf_counter()
    import workloads  # noqa: F401  (pulls in repro)
    import layers  # noqa: F401
    elapsed = time.perf_counter() - start
    after = min(clock.calibrate() for _ in range(5))
    speed = CAL_REF_S / min(before, after)
    return elapsed * speed, speed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", out_dir: Optional[str] = None,
                 golden: Optional[Dict[str, Any]] = None,
                 clock: Optional[Clock] = None, import_s: float = 0.0,
                 speed: float = 1.0) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the result record.

    ``setup_s`` = importing the program (``import_s``, measured by the
    caller) + building the workload (spec and point construction, temp
    directory) + the best composite of ``SETUP_PASSES`` warm-up passes.
    """
    import layers
    import workloads

    contract = load_contract()
    clock = clock or Clock()
    with scratch_dir("run-") as workdir:
        spans = Spans(clock) if trace else NoSpans()
        with spans.span("run", workload=name, seed=seed):
            start = time.perf_counter()
            with spans.span("prepare"):
                workload = workloads.make_workload(name, seed, scale, workdir,
                                                   golden)
            prepare_s = (time.perf_counter() - start) * speed
            if seed != workloads.GOLDEN_SEED:
                clock.pause()
                workloads.golden_pass(workload, scale, golden)
                clock.resume()
            setup = PassTimer(clock)
            with spans.span("setup"):
                for _ in range(SETUP_PASSES):
                    setup.begin()
                    workload.setup(setup, spans)
                    setup.end()
                clock.resume()
            with spans.span("workload", workload=name):
                if trace:
                    names = [m["name"] for m in contract["per_layer"]]
                    # the variants get 60% of the run; micro passes and
                    # the real run_fabric take the rest
                    values, timer = layers.traced_run(
                        names, workload, clock, spans, 0.6 * seconds, workdir)
                else:
                    timer = PassTimer(clock)
                    run_passes(timer, lambda t: workload.one_pass(t, spans),
                               seconds)
                clock.resume()
        best = timer.best()
        if not trace:
            peak = max(resource.getrusage(who).ru_maxrss for who in
                       (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            values = {
                "setup_s": import_s + prepare_s + setup.best()["wall_s"],
                "sim_flits_per_s": workload.flits / best["wall_s"],
                "cpu_us_per_flit": best["cpu_s"] * 1e6 / workload.flits,
                "peak_rss_mb": peak / 1024.0,
            }
        check = workload.check
        if not (setup.consistent and timer.consistent):
            check.fail(name, "a pass produced a different segment sequence")
        trace_path = None
        if trace:
            trace_path = os.path.join(out_dir or workdir, f"trace_{name}.json")
            spans.write_chrome_trace(trace_path)
        units = {m["name"]: m["unit"] for m in
                 contract["per_layer" if trace else "end_to_end"]}
        return {
            "workload": name, "seed": seed, "trace": int(trace),
            "correct": check.failed == 0,
            "attempted": check.attempted, "failed": check.failed,
            "errors": check.errors,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in values.items()},
            "diagnostics": {
                "passes": best["passes"], "segments": best["segments"],
                "speed": best["speed"], "raw_wall_s": best["raw_wall_s"],
                "by_label_s": best["by_label_s"],
                "pass_wall_min_s": best["pass_wall_min_s"],
                "pass_wall_median_s": best["pass_wall_median_s"],
                "pass_wall_max_s": best["pass_wall_max_s"],
                "points": workload.points, "cycles": workload.cycles,
                "flits": workload.flits,
                "sim": workload.sim, "import_s": import_s,
                "prepare_s": prepare_s,
                "setup_passes_s": setup.best()["wall_s"],
                "span_self_s": spans.self_times() if trace else {},
                "span_root_s": (spans.rows[0][2] - spans.rows[0][1]
                                if trace else 0.0),
                "trace_file": trace_path if out_dir else None,
            },
        }


def print_record(record: Dict[str, Any]) -> None:
    diag = record["diagnostics"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {diag['passes']} passes x "
          f"{diag['segments']} segments, {diag['points']} points / "
          f"{diag['cycles']} cycles / {diag['flits']} flits a pass, machine speed "
          f"{diag['speed']:.3f} of reference")
    idle = [key for key, metric in record["metrics"].items()
            if record["trace"] and metric["value"] == 0]
    for key, metric in record["metrics"].items():
        if key not in idle:
            print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    if idle:
        print(f"  0 (layer not exercised by this workload): {' '.join(idle)}")
    for error in record["errors"]:
        print(f"  FAILED {error}")
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


# ----------------------------------------------------------------------
# The whole set: one process per workload, one results file
# ----------------------------------------------------------------------

def fingerprint(seeds: List[int], seconds: float, scale: str) -> Dict[str, Any]:
    import repro

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "platform": platform.platform(),
        "repro": repro.__version__, "git_commit": commit,
        "seeds": seeds, "run_seconds": seconds, "scale": scale,
        "cal_ref_s": CAL_REF_S,
    }


def run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    results: Dict[str, Any] = {
        "fingerprint": fingerprint(seeds, args.seconds, args.scale),
        "workloads": {},
    }
    ok = True
    for name in names:
        entry: Dict[str, Any] = {"end_to_end": {}, "per_layer": {},
                                 "attempted": 0, "failed": 0, "passes": []}
        for seed in seeds:
            for trace in ([0, 1] if args.trace else [0]):
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.scale == "smoke":
                    command.append("--smoke")
                if args.out:
                    command += ["--out", args.out]
                done = subprocess.run(command, capture_output=True, text=True)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    ok = False
                    continue
                record = json.loads(lines[-1])
                ok = ok and record["correct"]
                entry["attempted"] += record["attempted"]
                entry["failed"] += record["failed"]
                section = entry["per_layer" if trace else "end_to_end"]
                for key, metric in record["metrics"].items():
                    row = section.setdefault(
                        key, {"unit": metric["unit"], "values": []})
                    row["values"].append(metric["value"])
                if not trace:
                    diag = next(json.loads(line[len("diagnostics "):])
                                for line in lines
                                if line.startswith("diagnostics "))
                    entry["passes"].append(diag["passes"])
        results["workloads"][name] = entry
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "results.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in its own process)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seeds", help="all-workload mode: comma-separated "
                        "seeds, one run each")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_const", const="smoke",
                        default="full", dest="scale",
                        help="the harness test's size: short phases, a "
                        "12-point grid")
    parser.add_argument("--out", help="directory for results.json and the "
                        "Chrome traces")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json from run_simulation")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (load_contract()["run_seconds"]
                        if args.scale == "full" else 0.3)
    clock = Clock()
    try:
        import_s, speed = timed_import(clock)
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.regen_golden:
        workloads.regen_golden()
        print(f"wrote {workloads.GOLDEN_PATH}")
        return 0
    if args.workload is None:
        return run_all(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale, args.out,
                          clock=clock, import_s=import_s, speed=speed)
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
