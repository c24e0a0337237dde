"""The paper's evaluation, one benchmark per registered experiment.

Each case regenerates one table or figure at the QUICK scale (8-ary
2-torus, short runs), prints it, and asserts the experiment's own
``claim`` -- the paper's shape claim, which lives next to the grid in
``src/repro/experiments/<id>_*.py`` -- so ``pytest
benchmarks/bench_experiments.py`` doubles as the full reproduction run
and fails when a curve bends.  Timings are captured with a single round:
these are simulation harnesses, not micro-benchmarks.
"""

import pytest

from repro.experiments import QUICK, REGISTRY


@pytest.mark.parametrize("exp_id", sorted(REGISTRY))
def test_claim(benchmark, exp_id):
    experiment = REGISTRY[exp_id]
    rows = benchmark.pedantic(
        lambda: experiment.run(QUICK), rounds=1, iterations=1
    )
    print()
    print(experiment.table(rows))
    assert rows
    experiment.claim(rows, QUICK)
