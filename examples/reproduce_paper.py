#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Runs the full experiment registry (e01..e23, t01..t03) at the chosen
scale, prints each reproduction table and whether the experiment's
shape claim holds, and writes both the tables (``results/<id>.txt``)
and the raw rows (``results/<id>.csv``) for external plotting.  See
EXPERIMENTS.md for the paper-vs-measured reading of each artifact.

Run:  python examples/reproduce_paper.py [--scale quick|paper]
                                         [--only e01,e07,...]
                                         [--out results]

The quick scale (8-ary 2-torus) takes a few minutes in total; the paper
scale (16-ary) takes hours in pure Python -- run it overnight, or pick
individual experiments with --only.
"""

import argparse
import pathlib
import time

from repro.experiments import PAPER, QUICK, REGISTRY
from repro.sim.export import rows_to_csv


def parse_args():
    parser = argparse.ArgumentParser(
        description="regenerate the paper's evaluation"
    )
    parser.add_argument(
        "--scale", default="quick", choices=["quick", "paper"]
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment ids (default: all)",
    )
    parser.add_argument("--out", default="results")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = PAPER if args.scale == "paper" else QUICK
    wanted = (
        sorted(REGISTRY)
        if args.only is None
        else [x.strip() for x in args.only.split(",") if x.strip()]
    )
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    grand_start = time.time()
    for exp_id in wanted:
        experiment = REGISTRY[exp_id]
        start = time.time()
        rows = experiment.run(scale)
        text = experiment.table(rows)
        elapsed = time.time() - start
        print(f"==== {exp_id} ({elapsed:.0f}s) " + "=" * 40)
        print(text)
        print(experiment.verdict(rows, scale))
        print()
        (out_dir / f"{exp_id}.txt").write_text(text + "\n")
        rows_to_csv(rows, str(out_dir / f"{exp_id}.csv"))
    total = time.time() - grand_start
    print(
        f"reproduced {len(wanted)} artifacts at the {scale.name} scale "
        f"in {total:.0f}s; tables and CSVs in {out_dir}/"
    )


if __name__ == "__main__":
    main()
