"""One TINY run per experiment serves every test in this directory."""

import os
import sys

import pytest

from repro.experiments import REGISTRY

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)
from experiments_golden import TINY  # noqa: E402


@pytest.fixture(scope="session")
def tiny_rows():
    """``tiny_rows(exp_id)``: the experiment's rows at ``TINY``,
    simulated on first use and shared by the golden compare, the column
    contract, the table render and the claim."""
    ran = {}

    def rows(exp_id):
        if exp_id not in ran:
            ran[exp_id] = REGISTRY[exp_id].run(TINY)
        return ran[exp_id]

    return rows
