"""Compare two results.json files metric by metric, workload by workload.

    python3 benchmarks/perf/compare.py A.json B.json [--layers]
    python3 benchmarks/perf/compare.py --repeat [--seeds 1,2,3] [--seconds S]

``A`` is the base (the parent commit), ``B`` the change.  Every
end-to-end metric gets one row per workload: both medians, the ratio
B/A *with its base named*, each side's spread (distance between the
quartiles over the median, when a side has four or more runs) and a
verdict against the bound BENCHMARK.json fixes for that metric:

* ``improved`` / ``regressed`` -- B's median is better / worse than A's
  by more than the bound;
* ``unchanged`` -- within the bound;
* ``unresolved`` -- a side's spread is wider than the bound, so the
  difference cannot be told from noise -- unless every run of B reads
  better (or worse) than every run of A, which settles it.

Exits 1 if any row regressed.  ``--repeat`` runs the whole set twice on
this tree and exits 1 if any pair differs by more than its bound in
either direction: the benchmark agreeing with itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_contract, scratch_dir  # noqa: E402


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance over the median; None below four runs."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else None


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    noisy = any(s is not None and s > bound for s in (spread(a), spread(b)))
    if better == "lower":  # flip, so that higher reads better below
        a, b = [-x for x in a], [-x for x in b]
    base = statistics.median(a)
    change = (statistics.median(b) - base) / abs(base) if base else 0.0
    if noisy:
        if min(b) > max(a):
            return "improved"
        if max(b) < min(a) and -change > bound:
            return "regressed"
        return "unresolved"
    if change > bound:
        return "improved"
    if -change > bound:
        return "regressed"
    return "unchanged"


def fmt_spread(values: List[float]) -> str:
    value = spread(values)
    return "     -" if value is None else f"{value:6.1%}"


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any],
            layers: bool = False) -> Dict[str, int]:
    """Print the table; returns verdict -> count."""
    counts: Dict[str, int] = {}
    print(f"{'workload':16s} {'metric':30s} {'A (base)':>13s} {'B':>13s} "
          f"{'B/A':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        rows_a = a["workloads"].get(workload)
        rows_b = b["workloads"].get(workload)
        if rows_a is None or rows_b is None:
            print(f"{workload:16s} missing from {'A' if rows_a is None else 'B'}")
            counts["missing"] = counts.get("missing", 0) + 1
            continue
        for section, metrics in (("end_to_end", contract["end_to_end"]),
                                 ("per_layer", contract["per_layer"])):
            if section == "per_layer" and not layers:
                continue
            for metric in metrics:
                name = metric["name"]
                va = rows_a[section].get(name, {}).get("values")
                vb = rows_b[section].get(name, {}).get("values")
                if not va or not vb:
                    continue
                ma, mb = statistics.median(va), statistics.median(vb)
                if section == "per_layer" and ma == 0 and mb == 0:
                    continue
                ratio = f"{mb / ma:8.3f}" if ma else "       -"
                if "bound" in metric:
                    word = verdict(va, vb, metric["better"], metric["bound"])
                    counts[word] = counts.get(word, 0) + 1
                    bound = f"{metric['bound']:6.0%}"
                else:
                    word, bound = "", "     -"
                print(f"{workload:16s} {name:30s} {ma:13.6g} {mb:13.6g} "
                      f"{ratio} {fmt_spread(va):>8s} {fmt_spread(vb):>8s} "
                      f"{bound}  {word}")
        for side, rows in (("A", rows_a), ("B", rows_b)):
            if rows["failed"]:
                print(f"{workload:16s} {side}: {rows['failed']} of "
                      f"{rows['attempted']} operations FAILED")
                counts["failed"] = counts.get("failed", 0) + 1
    print("  ".join(f"{word}: {count}" for word, count in sorted(counts.items())))
    return counts


def load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def repeat(extra: List[str], contract: Dict[str, Any]) -> int:
    with scratch_dir("repeat-") as workdir:
        sides = []
        for side in ("A", "B"):
            out = os.path.join(workdir, side)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--out", out]
                + extra, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"run {side} failed (exit {done.returncode})")
                return 1
            sides.append(load(os.path.join(out, "results.json")))
        counts = compare(sides[0], sides[1], contract)
    disagree = sum(counts.get(word, 0) for word in
                   ("improved", "regressed", "missing", "failed"))
    return 1 if disagree else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="RESULTS.json")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics (no verdicts)")
    parser.add_argument("--repeat", action="store_true",
                        help="run the whole set twice on this tree")
    for option in ("--seeds", "--seconds"):
        parser.add_argument(option, help="with --repeat: passed to run.py")
    parser.add_argument("--smoke", action="store_true",
                        help="with --repeat: passed to run.py")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.repeat:
        extra = ["--smoke"] if args.smoke else []
        for option in ("seeds", "seconds"):
            if getattr(args, option) is not None:
                extra += [f"--{option}", getattr(args, option)]
        return repeat(extra, contract)
    if len(args.files) != 2:
        parser.error("give exactly two results.json files, or --repeat")
    counts = compare(load(args.files[0]), load(args.files[1]), contract,
                     args.layers)
    bad = sum(counts.get(word, 0) for word in ("regressed", "missing", "failed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
