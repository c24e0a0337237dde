"""Differential conformance: every seeded protocol bug must be caught.

This is the oracle that keeps the invariant checkers honest: for each
mutation in :mod:`repro.verify.mutations` there is a tuned configuration
under which the mutated simulator trips the expected checker, while the
same configuration unmutated sails through every invariant.  A checker
silently weakened by a future refactor fails this suite, not a user.

Adding a mutation without a config here fails
``test_every_mutation_has_a_tuned_config``.
"""

import pytest

from repro import InvariantViolation, SimConfig, VerifyConfig, run_simulation
from repro.core.timeout import FixedTimeout
from repro.verify.mutations import MUTATIONS, apply_mutation, mutation_names
from repro.verify.reference import ReferenceEngine


def _base(**overrides) -> dict:
    params = dict(
        routing="cr", radix=4, dims=2, load=0.3, message_length=16,
        warmup=50, measure=400, drain=3000, seed=42,
    )
    params.update(overrides)
    return params


#: mutation name -> SimConfig kwargs tuned so the planted bug manifests
#: quickly and deterministically.
TUNED = {
    "credit-loss": _base(),
    "credit-double-return": _base(),
    "eject-credit-leak": _base(),
    "double-delivery": _base(),
    "padding-shortfall": _base(),
    "eject-same-cycle": _base(),
    # Kill-path bugs need kill traffic: high load, short timeout.
    "kill-skip-hop": _base(timeout=FixedTimeout(8)),
    "kill-leaves-flit": _base(load=0.45, timeout=FixedTimeout(8)),
    # Liveness bugs need a run that actually deadlocks once the
    # protocol's escape hatch is sabotaged; the liveness check fires
    # after half the watchdog without progress (1000 / 1500 cycles).
    "timeout-disabled": _base(
        load=0.6, message_length=12, num_vcs=1,
        warmup=0, measure=2500, drain=2000, watchdog=2000,
    ),
    "dateline-skip": _base(
        routing="dor", num_vcs=2, load=0.3, message_length=8,
        warmup=0, measure=4000, drain=2000, watchdog=3000,
    ),
}


#: the unmutated twin holds every invariant under either engine.  A
#: mutation is planted on the reference engine whatever the config says
#: (the fast engine inlines the methods it patches): the ``fast`` cases
#: of ``test_mutation_is_caught`` pin that selection.
ENGINES = ("reference", "fast")


def _config(name: str, mutated: bool, engine: str = "reference") -> SimConfig:
    return SimConfig(
        engine=engine,
        **TUNED[name],
        verify=VerifyConfig(
            check_interval=16,
            mutation=name if mutated else None,
        ),
    )


class TestRegistry:
    def test_at_least_eight_mutations(self):
        assert len(MUTATIONS) >= 8

    def test_every_mutation_has_a_tuned_config(self):
        assert set(TUNED) == set(mutation_names())

    def test_unknown_mutation_rejected(self):
        engine = SimConfig(radix=4).build()
        with pytest.raises(ValueError, match="unknown mutation"):
            apply_mutation(engine, "no-such-bug")

    def test_registry_entries_are_described(self):
        for mutation in MUTATIONS.values():
            assert mutation.description
            assert mutation.caught_by in (
                "conservation", "credits", "kill-protocol", "padding",
                "liveness", "latency-floor", "quiescence",
            )


class TestDifferentialOracle:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(TUNED))
    def test_mutation_is_caught(self, name, engine):
        config = _config(name, mutated=True, engine=engine)
        assert type(config.build()) is ReferenceEngine
        if engine == "fast":
            return  # the same engine the reference case runs
        with pytest.raises(InvariantViolation) as exc:
            run_simulation(config)
        assert exc.value.invariant == MUTATIONS[name].caught_by
        assert exc.value.report is not None

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(TUNED))
    def test_unmutated_twin_passes(self, name, engine):
        """The exact same configuration without the planted bug holds
        every invariant (the differential half of the oracle)."""
        result = run_simulation(_config(name, mutated=False, engine=engine))
        assert result.report["verify"]["checks"] > 0
