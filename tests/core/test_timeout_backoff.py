"""Timeout and retransmission-gap policies."""

import random

import pytest

from repro.core.backoff import ExponentialBackoff, StaticGap
from repro.core.timeout import (
    FixedTimeout,
    LengthScaledTimeout,
    PathWideTimeout,
)
from repro.network.message import Message


def msg_with_wire(wire, kills=0):
    msg = Message(0, 1, min(wire, 4))
    msg.begin_attempt(wire, now=0)
    msg.kills = kills
    return msg


class TestFixedTimeout:
    def test_threshold_constant(self):
        policy = FixedTimeout(32)
        assert policy.threshold(msg_with_wire(8), num_vcs=1) == 32
        assert policy.threshold(msg_with_wire(64), num_vcs=4) == 32

    def test_fires_at_threshold(self):
        policy = FixedTimeout(32)
        msg = msg_with_wire(8)
        assert not policy.fires(31, msg, 1)
        assert policy.fires(32, msg, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FixedTimeout(0)


class TestLengthScaledTimeout:
    def test_paper_rule(self):
        """Fig. 14: timeout = message length x number of VCs."""
        policy = LengthScaledTimeout()
        assert policy.threshold(msg_with_wire(20), num_vcs=2) == 40

    def test_factor(self):
        policy = LengthScaledTimeout(factor=0.5)
        assert policy.threshold(msg_with_wire(20), num_vcs=2) == 20

    def test_minimum_floor(self):
        policy = LengthScaledTimeout()
        assert policy.threshold(msg_with_wire(4), num_vcs=1) == \
            LengthScaledTimeout.minimum

    def test_invalid(self):
        with pytest.raises(ValueError):
            LengthScaledTimeout(factor=0)


class TestPathWideTimeout:
    def test_stalled_judgement(self):
        monitor = PathWideTimeout(16)
        assert not monitor.stalled(last_advance=100, now=115)
        assert monitor.stalled(last_advance=100, now=116)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PathWideTimeout(0)


class TestStaticGap:
    def test_constant(self):
        policy = StaticGap(32)
        rng = random.Random(0)
        assert policy.gap(msg_with_wire(8, kills=1), rng) == 32
        assert policy.gap(msg_with_wire(8, kills=9), rng) == 32

    def test_zero_allowed(self):
        assert StaticGap(0).gap(msg_with_wire(8, kills=1),
                                random.Random(0)) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            StaticGap(-1)


class TestExponentialBackoff:
    def test_range_grows_with_kills(self):
        policy = ExponentialBackoff(slot_cycles=8)
        rng = random.Random(0)
        few = max(policy.gap(msg_with_wire(8, kills=1), rng)
                  for _ in range(200))
        many = max(policy.gap(msg_with_wire(8, kills=6), rng)
                   for _ in range(200))
        assert few <= 8  # 2^1 slots max -> slot values {0, 8}
        assert many > few

    def test_cap_bounds_gap(self):
        policy = ExponentialBackoff(slot_cycles=4)
        rng = random.Random(1)
        gaps = [policy.gap(msg_with_wire(8, kills=50), rng)
                for _ in range(500)]
        assert 0 <= min(gaps) and max(gaps) <= 4 * (2**policy.cap - 1)

    def test_slot_quantisation(self):
        policy = ExponentialBackoff(slot_cycles=16)
        rng = random.Random(2)
        for _ in range(100):
            assert policy.gap(msg_with_wire(8, kills=3), rng) % 16 == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(slot_cycles=0)
