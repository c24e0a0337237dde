"""Selection policies."""

import random

from repro import Candidate, FirstFree, RandomFree


class TestFirstFree:
    def test_deterministic(self):
        policy = FirstFree()
        free = [Candidate(0, 0), Candidate(1, 0)]
        assert policy.pick(free, None, None, random.Random(0)) == free[0]


class TestRandomFree:
    def test_covers_all_candidates(self):
        policy = RandomFree()
        free = [Candidate(p, 0) for p in range(3)]
        rng = random.Random(0)
        seen = {policy.pick(free, None, None, rng).port for _ in range(60)}
        assert seen == {0, 1, 2}

    def test_single_candidate_shortcut(self):
        policy = RandomFree()
        only = [Candidate(2, 1)]
        assert policy.pick(only, None, None, random.Random(0)) == only[0]
