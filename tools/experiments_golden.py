"""Frozen experiment rows: ``tests/golden/experiments.json``.

Every experiment in ``repro.experiments.REGISTRY`` run once at
:data:`TINY` (a 4-ary 2-torus, two loads, seed 3), rows kept whole --
not digests -- so a mismatch names the cell that moved.  The rows are
seeded integer arithmetic plus float means over them; they are the same
under any ``PYTHONHASHSEED``, and the tier-1 compare
(``tests/experiments/``) allows floats one part in 10^9 for Python
3.12's compensated ``sum()``.

    PYTHONPATH=src python tools/experiments_golden.py --check
    PYTHONPATH=src python tools/experiments_golden.py --write [e24 ...]

``--write`` with ids records only those (a new experiment joins the
file without touching the others); without ids it rewrites every entry.
Rewrite only at a commit whose curves are the intended reference: the
file is the licence for refactoring the harness under it.
"""
import argparse
import json
import os
import sys

from repro.experiments import REGISTRY, Scale

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "tests", "golden", "experiments.json",
)

TINY = Scale(
    name="tiny",
    radix=4,
    dims=2,
    warmup=50,
    measure=250,
    drain=2500,
    message_length=8,
    loads=(0.1, 0.25),
    seed=3,
)


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def first_difference(rows, golden, rel=1e-9):
    """Where ``rows`` leave ``golden`` (key order counts; floats within
    ``rel``), as text; ``None`` when they match."""
    if len(rows) != len(golden):
        return f"{len(rows)} rows, golden has {len(golden)}"
    for index, (row, want) in enumerate(zip(rows, golden)):
        if list(row) != list(want):
            return f"row {index}: columns {list(row)} != {list(want)}"
        for key, value in row.items():
            close = (
                isinstance(value, float) and isinstance(want[key], float)
                and abs(value - want[key]) <= rel * abs(want[key])
            )
            if value != want[key] and not close:
                return f"row {index} [{key}]: {value!r} != {want[key]!r}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    parser.add_argument("ids", nargs="*", help="default: every experiment")
    args = parser.parse_args(argv)
    ids = args.ids or sorted(REGISTRY)
    rows = {exp_id: REGISTRY[exp_id].run(TINY) for exp_id in ids}
    if args.write:
        golden = load_golden() if args.ids else {}
        golden.update(rows)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=False)
            handle.write("\n")
        print(f"wrote {len(rows)} experiment(s) to {GOLDEN_PATH}")
        return 0
    golden = load_golden()
    moved = 0
    for exp_id in ids:
        difference = first_difference(rows[exp_id], golden.get(exp_id, []))
        if difference:
            moved += 1
            print(f"{exp_id}: {difference}")
    print(f"{moved} mismatches")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
