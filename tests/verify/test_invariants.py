"""The invariant checker itself: clean runs pass, planted faults trip.

The conformance suite proper (every registered mutation is caught) lives
in ``test_mutations.py``; this file covers the checker mechanics --
configuration coercion, hook wiring, the typed violation with its
forensic payload, and direct data-level fault injection that bypasses
the mutation registry.
"""

import pytest

from repro import (
    InvariantViolation,
    SimConfig,
    VerifyConfig,
    run_simulation,
    verify_preset,
)
from repro.obs.forensics import DeadlockReport
from repro.obs.tracing import config_for_experiment, trace_experiments
from repro.verify.invariants import InvariantChecker

#: quick-scale sizing shared by the preset replays below.
QUICK_PRESET = dict(radix=4, warmup=50, measure=300, drain=3000)


class TestVerifyConfig:
    def test_coerce_off(self):
        assert VerifyConfig.coerce(None) is None
        assert VerifyConfig.coerce(False) is None

    def test_coerce_on(self):
        assert VerifyConfig.coerce(True) == VerifyConfig()
        explicit = VerifyConfig(check_interval=8)
        assert VerifyConfig.coerce(explicit) is explicit

    def test_coerce_rejects_junk(self):
        with pytest.raises(TypeError):
            VerifyConfig.coerce("yes")

    def test_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(check_interval=0)

    def test_stable_for_cache_keys(self):
        """The frozen dataclass reprs stably (the sweep cache and the
        campaign store fold SimConfig reprs into point hashes)."""
        a, b = VerifyConfig(check_interval=8), VerifyConfig(check_interval=8)
        assert a == b and repr(a) == repr(b)


class TestWiring:
    def test_disabled_by_default(self):
        engine = SimConfig(radix=4, warmup=10, measure=50).build()
        assert engine.checker is None

    def test_armed_by_flag(self):
        engine = SimConfig(radix=4, warmup=10, measure=50, verify=True).build()
        assert isinstance(engine.checker, InvariantChecker)

    def test_report_carries_summary(self):
        config = SimConfig(
            radix=4, load=0.2, warmup=50, measure=200, drain=2000,
            verify=VerifyConfig(check_interval=16),
        )
        result = run_simulation(config)
        summary = result.report["verify"]
        assert summary["checks"] > 0
        assert summary["flits_consumed"] > 0
        assert summary["commits_checked"] > 0

    def test_unknown_mutation_fails_at_build(self):
        config = SimConfig(
            radix=4, verify=VerifyConfig(mutation="not-a-mutation")
        )
        with pytest.raises(ValueError, match="unknown mutation"):
            config.build()


class TestPresetConformance:
    """The acceptance bar: every experiment preset runs clean under
    full checking at quick scale."""

    @pytest.mark.parametrize("experiment", ["e01", "e02", "e03"])
    def test_core_presets_hold_all_invariants(self, experiment):
        outcome = verify_preset(experiment, overrides=QUICK_PRESET)
        assert outcome.ok, f"{experiment}: {outcome.violation}"
        assert outcome.drained
        assert outcome.checks > 0
        assert outcome.delivered > 0

    def test_all_presets_known(self):
        assert {"e01", "e02", "e03"} <= set(trace_experiments())


class TestDirectFaultInjection:
    """Perturb live engine state and watch the matching checker fire."""

    def _run_engine(self):
        config = SimConfig(
            radix=4, load=0.25, warmup=0, measure=400,
            verify=VerifyConfig(check_interval=1 << 20),
        )
        engine = config.build()
        engine.run(200)
        return engine

    def test_stolen_credit_trips_credit_accounting(self):
        engine = self._run_engine()
        channel = next(
            c for c in engine._all_channels
            if not c.is_ejection and c.credits[0] > 0
        )
        channel.credits[0] -= 1
        with pytest.raises(InvariantViolation) as exc:
            engine.checker.check_all(engine.now)
        assert exc.value.invariant == "credits"

    def test_vanished_flit_trips_conservation(self):
        engine = self._run_engine()
        buffer = next(
            b
            for router in engine.routers
            for port_buffers in router.in_buffers
            for b in port_buffers
            if b.fifo
        )
        buffer.fifo.pop(0)
        with pytest.raises(InvariantViolation) as exc:
            engine.checker.check_all(engine.now)
        # The lost flit unbalances both ledgers; conservation sweeps
        # first.
        assert exc.value.invariant == "conservation"

    def test_violation_carries_forensics(self):
        engine = self._run_engine()
        engine.stats.counters["flits_injected"] += 1
        with pytest.raises(InvariantViolation) as exc:
            engine.checker.check_all(engine.now)
        violation = exc.value
        assert isinstance(violation, AssertionError)
        assert isinstance(violation.report, DeadlockReport)
        assert violation.cycle == engine.now
        text = str(violation)
        assert "[conservation]" in text
        # The DeadlockReport bundle is rendered into the message.
        assert violation.report.format() in text


class TestCampaignVerifyPlumbing:
    def _spec(self):
        from repro.campaign import CampaignSpec

        return CampaignSpec.from_dict({
            "name": "verify-plumbing",
            "description": "two tiny points for the --verify plumbing",
            "base": {
                "routing": "cr", "radix": 4, "warmup": 20,
                "measure": 100, "drain": 1500, "message_length": 8,
            },
            "axes": {"load": [0.1, 0.2]},
            "metrics": ["latency_mean", "verify"],
        })

    def test_run_campaign_arms_points(self, tmp_path):
        from repro.campaign import CampaignStore, run_campaign

        with CampaignStore(str(tmp_path / "c.db")) as store:
            stats = run_campaign(self._spec(), store, verify=True)
            assert stats.complete
            points = store.points("verify-plumbing", status="ok")
        assert len(points) == 2
        for point in points:
            assert point["report"]["verify"]["checks"] > 0

    def test_verify_changes_point_hashes(self, tmp_path):
        """Resuming an unverified campaign with --verify re-runs its
        points instead of skipping them (the hash embeds the flag)."""
        from repro.campaign import CampaignStore, run_campaign

        with CampaignStore(str(tmp_path / "c.db")) as store:
            first = run_campaign(self._spec(), store)
            assert first.ran == 2
            second = run_campaign(self._spec(), store, verify=True)
            assert second.ran == 2 and second.skipped == 0
            third = run_campaign(self._spec(), store, verify=True)
            assert third.skipped == 2
