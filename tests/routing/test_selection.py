"""The choice rule (``routing.base.pick``) and its one source, ``engine.rng``."""

import random

import pytest

from repro import (
    Candidate,
    FastEngine,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    torus,
)
from repro.network.message import reset_uid_counter
from repro.routing.base import pick
from repro.verify.reference import ReferenceEngine


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``choice`` and ``shuffle``
    calls and draws exactly what the base class draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {"choice": 0, "shuffle": 0}

    def choice(self, seq):
        self.calls["choice"] += 1
        return super().choice(seq)

    def shuffle(self, x):
        self.calls["shuffle"] += 1
        super().shuffle(x)


class TestPick:
    def test_lone_candidate_makes_no_draw(self):
        rng = CountingRandom(0)
        state = rng.getstate()
        only = [Candidate(2, 1)]
        assert pick(only, rng) == only[0]
        assert rng.calls["choice"] == 0
        assert rng.getstate() == state

    def test_draws_reach_every_candidate(self):
        free = [Candidate(p, 0) for p in range(3)]
        rng = random.Random(0)
        seen = {pick(free, rng).port for _ in range(60)}
        assert seen == {0, 1, 2}


SEED = 7


def _stale_draw(*args, **kwargs):
    raise AssertionError("a draw from a replaced engine.rng")


def hand_admitted_run(engine_cls, swap):
    """A CR workload admitted by hand on a 4-ary 2-cube, run to drain.

    With ``swap`` the engine's ``rng`` is replaced, before the first
    cycle, by a counting same-seed generator.  Returns the deliveries
    as ``(uid, delivered_at)`` and the counts (None when not swapped).
    """
    reset_uid_counter()
    topology = torus(4, 2)
    network = WormholeNetwork(topology, MinimalAdaptive(topology), num_vcs=1)
    engine = engine_cls(
        network, protocol=ProtocolConfig(mode=ProtocolMode.CR),
        seed=SEED, watchdog=5000,
    )
    counting = None
    if swap:
        # Anything still holding the engine's first generator would
        # draw from it; make such a draw fail.
        for name in ("random", "getrandbits", "_randbelow", "choice",
                     "shuffle", "randrange", "randint", "sample"):
            setattr(engine.rng, name, _stale_draw)
        counting = engine.rng = CountingRandom(SEED)
    traffic = random.Random(1)
    messages = []
    for _ in range(48):
        src, dst = traffic.sample(range(topology.num_nodes), 2)
        message = Message(src, dst, 12, seq=engine.next_seq(src, dst))
        assert engine.admit(message)
        messages.append(message)
    assert engine.run_until_drained(20000)
    deliveries = [(m.uid, m.delivered_at) for m in messages]
    return deliveries, counting and counting.calls


@pytest.mark.parametrize("engine_cls", (FastEngine, ReferenceEngine))
def test_engine_rng_is_the_one_choice_source(engine_cls):
    plain, _ = hand_admitted_run(engine_cls, swap=False)
    swapped, calls = hand_admitted_run(engine_cls, swap=True)
    assert swapped == plain
    assert all(at is not None for _, at in plain)
    assert calls["choice"] > 0 and calls["shuffle"] > 0
