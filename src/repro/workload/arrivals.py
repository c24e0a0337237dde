"""Arrival processes: when does each node offer its next message?

The paper's arrival model is an independent per-node-per-cycle
Bernoulli draw from a single shared RNG stream.  Production traffic is
not Bernoulli: interarrivals are bursty (on/off sources) and
heavy-tailed (a few sources dominate).  This module factors the
*arrival decision* out of the generator so the workload layer can swap
it:

* :class:`BernoulliArrivals` — the default (``workload`` unset builds
  it): one shared stream, one ``random()`` per node per cycle,
  destination and length sampled from the same stream.  Its draw
  sequence is pinned by ``tests/golden/traffic.json``.
* :class:`GeometricArrivals` — renewal process with geometric
  interarrival gaps (the discrete-time Poisson analogue).  Same mean
  rate as Bernoulli, but arrivals are *scheduled*: idle cycles draw no
  randomness, which lets the fast engine skip straight to the next
  arrival.
* :class:`MMPPArrivals` — Markov-modulated on/off source (a 2-state
  MMPP): geometric dwell times in an ON state (Bernoulli at a boosted
  rate) and an OFF state (silent).  The classic bursty-traffic model.
* :class:`ParetoArrivals` — renewal process with Pareto(alpha)
  interarrivals: heavy-tailed, infinite variance for ``alpha <= 2``.
  Gaps shorter than a cycle batch into multi-message bursts.

Every process except Bernoulli uses *per-node* RNG streams
seeded ``f"{seed}:{node}"``, so node ``i``'s arrival sequence is a pure
function of ``(seed, i)`` — independent of how many other nodes exist
and of what they do (the property tests pin this).
"""

from __future__ import annotations

import abc
import inspect
import math
import random
from typing import Dict, List

_INF = float("inf")


def _geometric(rng: random.Random, mean: float) -> int:
    """A geometric variate >= 1 with the given mean (inverse CDF)."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    u = rng.random()
    return int(math.log1p(-u) / math.log1p(-p)) + 1


class ArrivalProcess(abc.ABC):
    """Decides, per node, when messages are offered.

    Lifecycle: construct with the target per-node-per-cycle ``rate``,
    then :meth:`bind` to a node count and seed before the first cycle.
    Each active cycle the generator calls :meth:`emits` once per node
    (in node order); destination/length draws for the resulting
    messages use :meth:`rng_for`.

    ``per_cycle_draws`` is the fast-engine contract: ``True`` means the
    process mutates state (or draws randomness) on *every* active
    cycle, so event skipping must fall back to the paced per-cycle
    generator loop; ``False`` means idle cycles are pure no-ops and
    :meth:`next_arrival` names the next cycle anything happens.
    """

    name = "abstract"
    #: True when emits() must run every active cycle (Bernoulli, MMPP).
    per_cycle_draws = True

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError("arrival rate must be >= 0")
        if rate > 1:
            raise ValueError(
                "arrival rate is per node per cycle and must be <= 1"
            )
        self.rate = rate

    @abc.abstractmethod
    def bind(self, num_nodes: int, seed, start: int = 0) -> None:
        """Create RNG state for ``num_nodes`` nodes; arrivals >= start."""

    @abc.abstractmethod
    def emits(self, node: int, now: int) -> int:
        """Messages node ``node`` offers at cycle ``now`` (0, 1, ...)."""

    @abc.abstractmethod
    def rng_for(self, node: int) -> random.Random:
        """The stream destination/length draws use for ``node``."""

    def idle(self) -> bool:
        """True when the process can never emit (zero rate)."""
        return self.rate == 0.0

    def next_arrival(self, now: int) -> float:
        """Earliest cycle >= now with an arrival (scheduled processes).

        Only meaningful when ``per_cycle_draws`` is False; per-cycle
        processes return ``now`` (they may act immediately).
        """
        return now


class BernoulliArrivals(ArrivalProcess):
    """The paper's model: one shared stream, one draw per node per cycle."""

    name = "bernoulli"
    per_cycle_draws = True

    def bind(self, num_nodes: int, seed, start: int = 0) -> None:
        # One *shared* stream: the node loop interleaves every node's
        # draws on it.
        self._rng = random.Random(seed)

    def emits(self, node: int, now: int) -> int:
        return 0 if self._rng.random() >= self.rate else 1

    def rng_for(self, node: int) -> random.Random:
        return self._rng


class _RenewalArrivals(ArrivalProcess):
    """Shared machinery: per-node next-arrival times from i.i.d. gaps."""

    per_cycle_draws = False

    def bind(self, num_nodes: int, seed, start: int = 0) -> None:
        self._rngs: List[random.Random] = [
            random.Random(f"{seed}:{node}") for node in range(num_nodes)
        ]
        if self.rate == 0.0:
            self._next = [_INF] * num_nodes
            return
        self._next: List[float] = [
            start + self._gap(self._rngs[node])
            for node in range(num_nodes)
        ]

    def _gap(self, rng: random.Random) -> float:
        raise NotImplementedError

    def emits(self, node: int, now: int) -> int:
        if self.rate == 0.0:
            return 0
        count = 0
        nxt = self._next[node]
        if nxt > now:
            return 0
        rng = self._rngs[node]
        while nxt <= now:
            count += 1
            nxt += self._gap(rng)
        self._next[node] = nxt
        return count

    def rng_for(self, node: int) -> random.Random:
        return self._rngs[node]

    def next_arrival(self, now: int) -> float:
        nxt = min(self._next) if self._next else _INF
        return nxt if nxt > now else now


class GeometricArrivals(_RenewalArrivals):
    """Geometric interarrival gaps: the memoryless renewal process."""

    name = "geometric"

    def _gap(self, rng: random.Random) -> float:
        return _geometric(rng, 1.0 / self.rate)


class ParetoArrivals(_RenewalArrivals):
    """Pareto(alpha) interarrival gaps: heavy-tailed bursts and silences.

    The scale ``xm`` is solved so the mean gap is ``1/rate``
    (``mean = alpha * xm / (alpha - 1)``), which needs ``alpha > 1``.
    With ``alpha <= 2`` the gap variance is infinite: most gaps are far
    below the mean (dense bursts), balanced by rare very long silences.
    """

    name = "pareto"

    def __init__(self, rate: float, alpha: float = 1.5) -> None:
        super().__init__(rate)
        if alpha <= 1.0:
            raise ValueError(
                "pareto alpha must be > 1 (finite mean interarrival)"
            )
        self.alpha = alpha
        self.xm = (
            (alpha - 1.0) / (alpha * rate) if rate > 0 else _INF
        )

    def _gap(self, rng: random.Random) -> float:
        u = rng.random()
        return self.xm * (1.0 - u) ** (-1.0 / self.alpha)


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated on/off source (bursty traffic).

    Each node independently alternates between an ON state, where it is
    a Bernoulli source at ``rate_on``, and a silent OFF state.  Dwell
    times are geometric with means ``mean_on`` / ``mean_off`` cycles.
    ``rate_on`` is solved so the long-run mean rate matches ``rate``:
    ``rate_on = rate * (mean_on + mean_off) / mean_on``, capped at 1.0
    (the cap is reported via :attr:`rate_on`; hit it and the achieved
    mean falls short — raise ``mean_on`` instead of the load).
    """

    name = "mmpp"
    per_cycle_draws = True  # dwell counters advance every active cycle

    def __init__(
        self,
        rate: float,
        mean_on: float = 32.0,
        mean_off: float = 96.0,
    ) -> None:
        super().__init__(rate)
        if mean_on < 1.0 or mean_off < 1.0:
            raise ValueError("MMPP dwell means must be >= 1 cycle")
        self.mean_on = mean_on
        self.mean_off = mean_off
        duty = mean_on / (mean_on + mean_off)
        self.rate_on = min(1.0, rate / duty) if rate > 0 else 0.0

    def bind(self, num_nodes: int, seed, start: int = 0) -> None:
        self._rngs = [
            random.Random(f"{seed}:{node}") for node in range(num_nodes)
        ]
        self._on: List[bool] = []
        self._dwell: List[int] = []
        duty = self.mean_on / (self.mean_on + self.mean_off)
        for node in range(num_nodes):
            rng = self._rngs[node]
            on = rng.random() < duty
            self._on.append(on)
            self._dwell.append(
                _geometric(rng, self.mean_on if on else self.mean_off)
            )

    def emits(self, node: int, now: int) -> int:
        rng = self._rngs[node]
        if self._dwell[node] <= 0:
            on = not self._on[node]
            self._on[node] = on
            self._dwell[node] = _geometric(
                rng, self.mean_on if on else self.mean_off
            )
        self._dwell[node] -= 1
        if not self._on[node]:
            return 0
        return 0 if rng.random() >= self.rate_on else 1

    def rng_for(self, node: int) -> random.Random:
        return self._rngs[node]


#: spec-name -> class, for make_arrivals and the CLI/campaign layer.
ARRIVAL_KINDS: Dict[str, type] = {
    BernoulliArrivals.name: BernoulliArrivals,
    GeometricArrivals.name: GeometricArrivals,
    "poisson": GeometricArrivals,  # the discrete-time Poisson analogue
    ParetoArrivals.name: ParetoArrivals,
    MMPPArrivals.name: MMPPArrivals,
}


def make_arrivals(kind: str, rate: float, **kwargs) -> ArrivalProcess:
    """Factory by spec name (mirrors ``make_pattern``)."""
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {kind!r}; "
            f"choose from {sorted(ARRIVAL_KINDS)}"
        ) from None
    if kwargs:
        # Everything the class takes after ``rate`` is a spec parameter.
        accepted = list(inspect.signature(cls).parameters)[1:]
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise ValueError(f"unknown {kind} parameters {unknown}")
    return cls(rate, **kwargs)
