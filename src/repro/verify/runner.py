"""Preset replay under full checking: the ``cr-sim verify`` backend.

Replays any experiment preset known to
:func:`repro.obs.tracing.config_for_experiment` with every invariant
armed, and reports per-preset verdicts.  With a mutation named, the
expectation flips: the run *should* trip a checker (the differential
oracle), and a mutated run that sails through cleanly is the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..network.engine import NetworkDeadlockError
from .invariants import InvariantViolation, VerifyConfig


@dataclass
class VerifyOutcome:
    """What replaying one preset under checking produced."""

    experiment: str
    ok: bool  #: run completed with no invariant violation
    cycles: int = 0
    checks: int = 0
    delivered: int = 0
    drained: bool = False
    violation: Optional[InvariantViolation] = None
    error: Optional[str] = None

    @property
    def caught(self) -> bool:
        """True when a checker (or the watchdog) flagged the run."""
        return not self.ok


def verify_preset(
    experiment: str,
    seed: int = 42,
    mutation: Optional[str] = None,
    check_interval: int = 16,
    overrides: Optional[Dict[str, Any]] = None,
) -> VerifyOutcome:
    """Replay ``experiment`` with all invariants armed."""
    from ..obs.tracing import config_for_experiment
    from ..sim.simulator import run_simulation

    config = config_for_experiment(
        experiment,
        seed=seed,
        verify=VerifyConfig(
            check_interval=check_interval,
            mutation=mutation,
        ),
        **(overrides or {}),
    )
    try:
        result = run_simulation(config, keep_engine=True)
    except InvariantViolation as exc:
        return VerifyOutcome(
            experiment, ok=False, cycles=exc.cycle, violation=exc
        )
    except NetworkDeadlockError as exc:
        # The watchdog outranks the liveness check only when it is no
        # longer than the check's 256-cycle floor; still a catch.
        return VerifyOutcome(
            experiment, ok=False, error=f"watchdog: {exc}"
        )
    summary = result.report.get("verify", {})
    return VerifyOutcome(
        experiment,
        ok=True,
        cycles=result.cycles_run,
        checks=int(summary.get("checks", 0)),
        delivered=int(result.report.get("messages_delivered", 0)),
        drained=result.drained,
    )
