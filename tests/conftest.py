"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import SimConfig


@pytest.fixture
def tiny_config() -> SimConfig:
    """A 4x4 torus run small enough for unit tests (<1s)."""
    return SimConfig(
        radix=4,
        dims=2,
        warmup=100,
        measure=400,
        drain=3000,
        message_length=8,
        load=0.2,
        seed=11,
    )


def run_tiny(config: SimConfig):
    """Convenience wrapper so tests read naturally."""
    from repro import run_simulation

    return run_simulation(config)


@pytest.fixture
def usage_error(capsys):
    """The CLI's misuse contract, in one place: exactly one stderr line,
    ``cr-sim <command>: <message>``, and no traceback.  Call it after
    ``main()`` returned 2 (``err=`` takes a subprocess's stderr); the
    line comes back for message-specific assertions."""

    def check(command: str, *named: str, err: str = None) -> str:
        if err is None:
            err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"cr-sim {command}: "), err
        for name in named:
            assert name in err
        return err

    return check
