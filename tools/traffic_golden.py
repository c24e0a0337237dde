"""Frozen simulation digests: ``tests/golden/traffic.json``.

Every entry of :func:`corpus` is run traced under an engine and reduced
to a sha256 over the event-stream reprs, the report (``profile`` and
every float dropped, recursively), the final ``channel_state``,
``cycles_run`` and ``cycles_skipped``; :func:`trace_corpus` adds
digests of ``record_trace(...)`` as ``(cycle, src, dst, length)``
lists.  Floats are left out because Python 3.12's compensated ``sum()``
moves ``latency_std`` by one ulp; everything else is integer arithmetic
on seeded draws, so the file carries no interpreter tag and binds every
Python CI runs.

    PYTHONPATH=src python tools/traffic_golden.py --commit SHA   # rewrite
    PYTHONPATH=src python tools/traffic_golden.py --check        # both engines
    PYTHONPATH=src python tools/traffic_golden.py --check --engine fast

Regenerate only at a commit whose behaviour is the intended reference,
and say which in ``--commit``: the file is the licence for deleting
code under it (ROADMAP item 2(a)).
"""
import argparse
import hashlib
import json
import os
import sys

from repro.faults.permanent import ChannelFault, PermanentFaultSchedule
from repro.network.fastengine import channel_state
from repro.network.message import reset_uid_counter
from repro.obs.tracing import config_for_experiment, run_traced
from repro.sim.config import SimConfig
from repro.traffic.lengths import BimodalLength
from repro.verify import (
    engine_equivalence_presets,
    iter_fuzz_equivalence_configs,
    workload_equivalence_configs,
)
from repro.workload import record_trace

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "tests", "golden", "traffic.json",
)
ENGINES = ("reference", "fast")

#: small-but-busy 4-ary 2-torus base for the hand-built entries.
SMALL = dict(radix=4, dims=2, message_length=8, load=0.3,
             warmup=60, measure=240, drain=800, seed=11)
#: the E23 replay base (the CI step and EXPERIMENTS.md E23).
E23 = dict(radix=4, dims=2, message_length=8, load=0.35,
           warmup=60, measure=300, drain=1200, seed=23)


def corpus():
    """name -> SimConfig (``engine`` is set by the caller).

    Built afresh for every pass: a run consumes the fault schedule its
    config carries.
    """
    out = dict(engine_equivalence_presets())
    for index, config in iter_fuzz_equivalence_configs():
        out[f"fuzz-{index:02d}"] = config
    replay = {"kind": "trace",
              "entries": record_trace(SimConfig(routing="cr", **E23))}
    for scheme in ("cr", "dor"):
        out[f"e23-{scheme}"] = SimConfig(
            routing=scheme, num_vcs=2, workload=replay, **E23
        )
    # Bursts of five from one source into a two-deep queue, long gaps
    # between them: pending entries re-offer, the gaps skip.
    out["sparse-trace"] = SimConfig(
        routing="cr", num_vcs=2, queue_cap=2,
        workload={"kind": "trace", "entries": (
            [(0, 0, dst, 8) for dst in (5, 6, 7, 9, 10)]
            + [(400, 3, 12, 8), (400, 3, 13, 4), (401, 3, 14, 8),
               (402, 3, 15, 8), (1500, 8, 1, 8)]
        )},
        **{**SMALL, "warmup": 100, "measure": 1500, "drain": 2000},
    )
    sparse = {**SMALL, "measure": 1200, "drain": 2000}
    out["load-0.01"] = SimConfig(
        routing="cr", num_vcs=2, **{**sparse, "load": 0.01}
    )
    out["load-0.0"] = SimConfig(
        routing="cr", num_vcs=2, **{**sparse, "load": 0.0}
    )
    # Scheduled faults inside spans the fast engine skips: cycle 430
    # falls in a paced span (387..474, generator draws only), cycle 900
    # in a pure jump between two trace entries.
    fcr = dict(routing="fcr", misrouting=True, num_vcs=2)
    out["scheduled-fault"] = SimConfig(
        fault_model=PermanentFaultSchedule([ChannelFault(430, 0, 1)]),
        **fcr, **{**sparse, "load": 0.01},
    )
    out["sparse-trace-fault"] = out["sparse-trace"].with_(
        fault_model=PermanentFaultSchedule([ChannelFault(900, 0, 1)]),
        **fcr,
    )
    # Lengths that draw from the traffic stream (fixed lengths draw
    # nothing, so only these see the destination/length draw order),
    # on the shared-stream and the per-node-stream loop.
    out["bimodal"] = SimConfig(
        routing="cr", num_vcs=2, pattern="transpose",
        **{**SMALL, "message_length": BimodalLength(4, 24, 0.3)},
    )
    out["bimodal-mmpp"] = out["bimodal"].with_(
        workload="mmpp", pattern="uniform"
    )
    for name in ("e08", "fault-matrix", "e10", "e19"):
        out[name] = config_for_experiment(name)
    out["composite"] = SimConfig(
        routing="fcr", misrouting=True, num_vcs=2, fault_rate=1e-4,
        permanent_faults=1,
        cascade_faults=(
            "base_hazard=2e-4,load_gain=8,check_interval=16,"
            "neighbor_boost=10,boost_cycles=96,repair_cycles=200"
        ),
        **{**SMALL, "load": 0.1, "drain": 4000},
    )
    out["pcs"] = SimConfig(routing="pcs", num_vcs=2, **SMALL)
    out["software-retry"] = SimConfig(
        routing="dor", software_retry=True, num_vcs=2, fault_rate=5e-4,
        **SMALL,
    )
    for name, config in workload_equivalence_configs().items():
        out[f"workload-{name}"] = config
    return out


def trace_corpus():
    """name -> SimConfig whose ``record_trace`` output is frozen."""
    return {
        "e23": SimConfig(routing="cr", **E23),
        "transpose-bimodal": SimConfig(
            pattern="transpose",
            **{**SMALL, "load": 0.5,
               "message_length": BimodalLength(4, 24, 0.3)},
        ),
        "hypercube-complement": SimConfig(
            topology="hypercube", dims=4, pattern="complement",
            message_length=6, load=0.2, warmup=40, measure=200, seed=5,
        ),
    }


def _without_floats(value):
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items()
                if not isinstance(v, float)}
    if isinstance(value, (list, tuple)):
        return [_without_floats(v) for v in value
                if not isinstance(v, float)]
    return value


def run_digest(config, engine):
    """The frozen record of one run of ``config`` under ``engine``."""
    reset_uid_counter()
    traced = run_traced(config.with_(engine=engine), keep_engine=True)
    built = traced.result.engine
    report = dict(traced.report)
    report.pop("profile", None)
    state = {
        key: value.tolist() if hasattr(value, "tolist") else value
        for key, value in channel_state(built).items()
    }
    skipped = getattr(built, "cycles_skipped", 0)
    sha = hashlib.sha256()
    for event in traced.events:
        sha.update(repr(event).encode("utf-8"))
        sha.update(b"\n")
    sha.update(json.dumps(
        [_without_floats(report), state, traced.result.cycles_run, skipped],
        sort_keys=True, default=repr,
    ).encode("utf-8"))
    return {
        "sha256": sha.hexdigest(),
        "events": len(traced.events),
        "cycles_run": traced.result.cycles_run,
        "cycles_skipped": skipped,
    }


def trace_digest(config):
    blob = json.dumps([(a.cycle, a.src, a.dst, a.length)
                       for a in record_trace(config)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def generate(commit):
    runs = {}
    for engine in ENGINES:
        for name, config in corpus().items():
            runs.setdefault(name, {})[engine] = run_digest(config, engine)
    golden = {
        "commit": commit,
        "runs": runs,
        "traces": {
            name: trace_digest(config)
            for name, config in trace_corpus().items()
        },
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(golden, out, indent=1, sort_keys=True)
        out.write("\n")
    return golden


def check(engines):
    """Mismatches against the committed file, as printable lines."""
    golden = load_golden()
    traces = trace_corpus()
    failures = []
    if set(corpus()) != set(golden["runs"]) \
            or set(traces) != set(golden["traces"]):
        failures.append("corpus and golden file name different entries")
    for engine in engines:
        for name, config in corpus().items():
            want = golden["runs"].get(name, {}).get(engine)
            got = run_digest(config, engine)
            if got != want:
                failures.append(f"{name} [{engine}]: {got} != {want}")
    for name, config in traces.items():
        if trace_digest(config) != golden["traces"].get(name):
            failures.append(f"record_trace {name}: digest differs")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file")
    parser.add_argument("--engine", choices=ENGINES, action="append",
                        help="engine(s) to check (default: both)")
    parser.add_argument("--commit", default=None,
                        help="the commit the digests are generated at")
    args = parser.parse_args(argv)
    if not args.check:
        if not args.commit:
            parser.error("generating needs --commit <sha of this tree>")
        golden = generate(args.commit)
        print(f"wrote {len(golden['runs'])} runs x {len(ENGINES)} "
              f"engines, {len(golden['traces'])} traces")
        return 0
    failures = check(args.engine or ENGINES)
    for line in failures:
        print(line, file=sys.stderr)
    print(f"traffic golden: {len(failures)} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
