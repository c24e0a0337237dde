"""Opt-in runtime protocol-invariant checking (see docs/VERIFICATION.md).

Arm it per run with ``SimConfig(verify=True)`` (or a tuned
:class:`VerifyConfig`), per command with ``cr-sim run/experiment/campaign
--verify``, or replay the experiment presets under full checking with
``cr-sim verify``.  The mutation registry provides the differential
oracle proving the checkers have teeth.
"""

from .._lazy import lazy_exports

#: submodule -> the names imported through ``repro.verify`` (everything
#: else is imported from its submodule), each loaded on first use: the
#: spec engine (``repro.verify.reference``) lives in this package, and a
#: run on it needs none of the checkers, the fuzzer or the diff.
_EXPORTS = {
    "invariants": ("VerifyConfig", "InvariantChecker", "InvariantViolation"),
    "mutations": ("apply_mutation", "mutation_names"),
    "runner": ("verify_preset",),
    "equivalence": (
        "ENGINE_EQUIVALENCE_PRESETS", "WORKLOAD_EQUIVALENCE_PRESETS",
        "assert_engines_equivalent", "engine_equivalence_presets",
        "iter_fuzz_equivalence_configs", "workload_equivalence_configs",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
