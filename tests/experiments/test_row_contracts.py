"""What every experiment module declares, held to the rows it makes.

The tables, the claims, EXPERIMENTS.md and the CSV exports all key into
experiment rows by column name.  Each module declares those columns
itself (``COLUMNS``); these tests hold the declaration, the table and
the claim to the one ``TINY`` run of ``tiny_rows``.
"""

import pytest
from experiments_golden import TINY

from repro.experiments import REGISTRY

#: claims that need the QUICK network -- each fails at TINY, and says why
QUICK_ONLY = {
    exp_id: "a CR-over-DOR saturation claim: a 4-ary torus never saturates"
    for exp_id in ("e01", "e04", "e23", "t03")
}


def test_contract_covers_registry():
    for exp_id, experiment in REGISTRY.items():
        assert experiment.columns, exp_id
        assert len(set(experiment.columns)) == len(experiment.columns)
    assert set(QUICK_ONLY) <= set(REGISTRY)


@pytest.mark.parametrize("exp_id", sorted(REGISTRY))
def test_rows_carry_expected_columns(exp_id, tiny_rows):
    rows = tiny_rows(exp_id)
    assert rows, f"{exp_id} produced no rows"
    declared = list(REGISTRY[exp_id].columns)
    for row in rows:
        assert list(row) == declared, f"{exp_id}: {row}"


@pytest.mark.parametrize("exp_id", sorted(REGISTRY))
def test_tables_render(exp_id, tiny_rows):
    text = REGISTRY[exp_id].table(tiny_rows(exp_id))
    assert isinstance(text, str) and len(text.splitlines()) >= 3


@pytest.mark.parametrize("exp_id", sorted(REGISTRY))
def test_claim_at_tiny(exp_id, tiny_rows):
    verdict = REGISTRY[exp_id].verdict(tiny_rows(exp_id), TINY)
    if exp_id in QUICK_ONLY:
        # Holding here means the reason went stale: drop it from the list.
        assert verdict.startswith("claim: FAILS — assert "), verdict
    else:
        assert verdict == "claim: holds"
