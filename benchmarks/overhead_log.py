"""Shared overhead ledger for the instrumentation benchmarks.

``bench_obs_overhead``, ``bench_verify_overhead``,
``bench_profile_overhead`` and ``bench_trace_overhead`` each bound the
cost of one opt-in subsystem against its budget.  Besides asserting,
they record the measured numbers here so a single
``results/overhead.json`` accumulates the latest figure per subsystem
-- the file CI uploads and the docs point at when quoting "the
profiler costs < 5%".

The file is read-modify-written, so the benchmarks can run in any
order (or individually) without clobbering each other's entries.
"""

import json
import os
import statistics
import time

#: where the accumulated overhead figures live.
OVERHEAD_LOG_PATH = os.path.join("results", "overhead.json")
#: interleaved plain/armed pairs; even, so each side runs first in
#: half of them and an order effect cancels in the median.
PAIRS = 10


def paired_difference(plain, armed):
    """``(median plain seconds, median armed-minus-plain seconds)``.

    ``plain()`` and ``armed()`` each time one run and return its wall
    seconds.  They run in ``PAIRS`` interleaved pairs with the order
    flipped every pair, so a drifting host loads both sides alike; a
    difference of two per-side minima would be mostly host noise when
    the armed cost is a few percent of a run.
    """
    plain_times, differences = [], []
    for index in range(PAIRS):
        if index % 2:
            armed_time = armed()
            plain_time = plain()
        else:
            plain_time = plain()
            armed_time = armed()
        plain_times.append(plain_time)
        differences.append(armed_time - plain_time)
    return statistics.median(plain_times), statistics.median(differences)


def record_overhead(name, overhead, budget, detail=None,
                    path=OVERHEAD_LOG_PATH):
    """Merge one subsystem's measured overhead into the shared ledger.

    ``name`` keys the entry (``obs``, ``verify``, ``profile``);
    ``overhead`` and ``budget`` are fractions (0.03 = 3%).  ``detail``
    is an optional dict of supporting numbers (wall times, counts).
    Returns the full ledger after the merge.
    """
    ledger = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                ledger = json.load(handle)
        except (ValueError, OSError):
            ledger = {}
    if not isinstance(ledger, dict):
        ledger = {}

    entry = {
        "overhead": round(float(overhead), 6),
        "budget": float(budget),
        "within_budget": bool(overhead < budget),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if detail:
        entry["detail"] = dict(detail)
    ledger[name] = entry

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ledger
