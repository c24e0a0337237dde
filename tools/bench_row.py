"""Fold ``benchmarks/perf/run.py [--trace] --out DIR`` results.json files
into one ledger row (ROADMAP item 1: ``BENCH_<pr>.json`` at the root):
the first file, with every later file's seeds, pass counts and metric
values appended workload by workload.

    python3 tools/bench_row.py BENCH_16.json DIR/results.json [more ...]
"""
import json
import sys


def fold(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    row = runs[0]
    for run in runs[1:]:
        row["fingerprint"]["seeds"] += run["fingerprint"]["seeds"]
        for name, entry in run["workloads"].items():
            into = row["workloads"][name]
            for key in ("attempted", "failed", "passes"):
                into[key] += entry[key]
            for section in ("end_to_end", "per_layer"):
                for metric, cell in entry[section].items():
                    into[section][metric]["values"] += cell["values"]
    return row


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(fold(sys.argv[2:]), out, indent=1, sort_keys=True)
        out.write("\n")
