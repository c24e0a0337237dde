"""Load-dependent cascading faults: hazard rises with sustained load.

Independent random faults are the easy case for a fault-tolerant router:
they are rare and scattered, so adaptive retries diversify around each
one.  Production outages do not look like that — overload *causes*
failure (thermal stress, buffer-starved control planes, marginal links
pushed past their error budget), and one failure shifts load onto its
neighbours, raising *their* hazard: failures cluster in space and time.

:class:`LoadDependentFaults` models this with a per-channel hazard that
rises exponentially with a sustained-occupancy EWMA:

* every ``check_interval`` cycles each live link channel folds its
  instantaneous buffer occupancy (``sum(sink.occupancy) / capacity``,
  read from the live buffers) into an EWMA ``L`` with smoothing
  ``ewma_alpha``;
* the per-cycle hazard is ``base_hazard * exp(load_gain * L)``,
  multiplied by ``neighbor_boost`` while a channel touching either
  endpoint failed within the last ``boost_cycles`` — this is the
  cascade coupling;
* the per-check failure probability is ``hazard * check_interval``
  (capped at 0.5), drawn from the model's own deterministic RNG in
  fixed channel order;
* a failure joins the cluster of a recently-failed neighbour (the
  cascade bookkeeping behind the ``cascade_events`` counter) or starts
  a new cluster;
* with ``repair_cycles`` set, killed channels come back after that many
  cycles (rounded up to a check boundary), modelling operator/autonomic
  repair.

Determinism and the fast engine: *everything* — EWMA updates, hazard
draws, repairs — happens only on ``now % check_interval == 0``
boundaries, so ``on_cycle`` is a provable no-op elsewhere.  The fast
engine treats :meth:`next_event` boundaries as wake events and steps
them fully; since both engines agree flit-for-flit on buffer state at
those cycles, the EWMAs, draws, and resulting fault sequences are
identical.

A connectivity guard (same margin rule as
:func:`repro.faults.permanent.random_channel_faults`) keeps every node
at least one live outgoing and incoming link so the network stays
routable, and ``max_dead_fraction`` bounds the total outage.
"""

from __future__ import annotations

import heapq
import math
import numbers
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .model import FaultModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.buffer import VCBuffer
    from ..network.channel import Channel
    from ..network.network import WormholeNetwork

#: ``LoadDependentFaults`` parameters by the kind of number each must
#: be; with ``seed``, the keys ``make_cascading`` accepts.
_INTEGERS = ("check_interval", "boost_cycles", "repair_cycles")
_RATES = (
    "base_hazard", "load_gain", "ewma_alpha", "neighbor_boost",
    "max_dead_fraction",
)
PARAMETERS = _RATES + _INTEGERS + ("seed",)


def _check_types(given: Dict[str, object]) -> None:
    """``ValueError`` naming the first parameter of the wrong type
    (``bool`` is not a number; a rate is a finite real)."""
    for name in _INTEGERS:
        value = given[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer (got {value!r})")
    for name in _RATES:
        value = given[name]
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ValueError(
                f"{name} must be a finite number (got {value!r})"
            )


class LoadDependentFaults(FaultModel):
    """Per-channel hazard driven by a sustained-occupancy EWMA."""

    def __init__(
        self,
        base_hazard: float = 1e-6,
        load_gain: float = 8.0,
        ewma_alpha: float = 0.1,
        check_interval: int = 32,
        neighbor_boost: float = 50.0,
        boost_cycles: int = 256,
        repair_cycles: int = 0,
        max_dead_fraction: float = 0.25,
        seed=0,
    ) -> None:
        _check_types(locals())
        if base_hazard < 0:
            raise ValueError("base_hazard must be >= 0")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if neighbor_boost < 1.0:
            raise ValueError("neighbor_boost must be >= 1 (it multiplies)")
        if not 0.0 <= max_dead_fraction <= 1.0:
            raise ValueError("max_dead_fraction must be in [0, 1]")
        if boost_cycles < 0:
            raise ValueError("boost_cycles must be >= 0")
        if repair_cycles < 0:
            raise ValueError("repair_cycles must be >= 0")
        self.base_hazard = base_hazard
        self.load_gain = load_gain
        self.ewma_alpha = ewma_alpha
        self.check_interval = check_interval
        self.neighbor_boost = neighbor_boost
        self.boost_cycles = boost_cycles
        self.repair_cycles = repair_cycles
        self.max_dead_fraction = max_dead_fraction
        self.seed = seed
        self._rng = random.Random(seed)
        self._bound = False
        # Per-link-channel state, indexed by position in link_channels.
        self._channels: List["Channel"] = []
        self._ewma: List[float] = []
        self._capacity: List[int] = []
        #: each channel's attached sink buffers (its occupancy is theirs).
        self._sinks: List[List["VCBuffer"]] = []
        #: cycle until which each channel's hazard is boosted (-1 = no).
        self._boost_until: List[int] = []
        #: channel index -> cluster id, for channels we killed.
        self._cluster_of: Dict[int, int] = {}
        #: cluster id -> (last_failure_cycle, member_count).
        self._clusters: Dict[int, Tuple[int, int]] = {}
        self._next_cluster = 0
        #: min-heap of (repair_cycle, channel_index).
        self._repairs: List[Tuple[int, int]] = []
        self._dead_out: Dict[int, int] = {}
        self._dead_in: Dict[int, int] = {}
        self._out_degree: Dict[int, int] = {}
        # Public tallies (mirrored into stats counters when bound).
        self.channel_faults = 0
        self.cascade_events = 0
        self.repairs_done = 0
        #: applied (cycle, src, dst) fault tuples, for reports/tests.
        self.applied: List[Tuple[int, int, int]] = []

    # -- engine integration ------------------------------------------------

    def next_event(self, now: int) -> float:
        """Earliest cycle >= now where this model may act (fast engine)."""
        remainder = now % self.check_interval
        return now if remainder == 0 else now + self.check_interval - remainder

    def on_cycle(self, now: int, network: "WormholeNetwork") -> None:
        if now % self.check_interval:
            return
        if not self._bound:
            self._bind(network)
        self._apply_repairs(now)
        self._update_and_draw(now, network)

    # -- internals ---------------------------------------------------------

    def _bind(self, network: "WormholeNetwork") -> None:
        self._channels = list(network.link_channels)
        count = len(self._channels)
        self._ewma = [0.0] * count
        self._sinks = [
            [sink for sink in channel.sinks if sink is not None]
            for channel in self._channels
        ]
        self._capacity = [
            sum(sink.depth for sink in sinks) or 1 for sinks in self._sinks
        ]
        self._boost_until = [-1] * count
        nodes = range(network.topology.num_nodes)
        self._dead_out = {n: 0 for n in nodes}
        self._dead_in = {n: 0 for n in nodes}
        self._out_degree = {
            n: len(network.topology.links(n)) for n in nodes
        }
        # Endpoint -> channel indices, for neighbour-boost propagation.
        self._touching: Dict[int, List[int]] = {n: [] for n in nodes}
        for index, channel in enumerate(self._channels):
            self._touching[channel.src_node].append(index)
            self._touching[channel.dst_node].append(index)
        self._bound = True

    def _apply_repairs(self, now: int) -> None:
        while self._repairs and self._repairs[0][0] <= now:
            _, index = heapq.heappop(self._repairs)
            channel = self._channels[index]
            if not channel.dead:
                continue
            channel.dead = False
            self._ewma[index] = 0.0
            self._dead_out[channel.src_node] -= 1
            self._dead_in[channel.dst_node] -= 1
            self.repairs_done += 1
            self._count("cascade_repairs")

    def _update_and_draw(self, now: int, network: "WormholeNetwork") -> None:
        alpha = self.ewma_alpha
        cap = max(
            1, int(self.max_dead_fraction * len(self._channels))
        )
        dead_total = sum(
            1 for channel in self._channels if channel.dead
        )
        # The sweep visits every live channel on every check: lists and
        # parameters are bound once, and a sink's occupancy is read as
        # VCBuffer.occupancy computes it.  The arithmetic, its order
        # and the one draw per live channel are the contract.
        ewmas, capacity, all_sinks = self._ewma, self._capacity, self._sinks
        boost_until = self._boost_until
        base_hazard, load_gain = self.base_hazard, self.load_gain
        neighbor_boost = self.neighbor_boost
        check_interval = self.check_interval
        exp, draw_one = math.exp, self._rng.random
        for index, channel in enumerate(self._channels):
            if channel.dead:
                continue
            occupied = 0
            for sink in all_sinks[index]:
                occupied += len(sink.fifo) + len(sink.incoming)
            load = occupied / capacity[index]
            ewma = ewmas[index] + alpha * (load - ewmas[index])
            ewmas[index] = ewma
            hazard = base_hazard * exp(load_gain * ewma)
            if boost_until[index] >= now:
                hazard *= neighbor_boost
            probability = min(0.5, hazard * check_interval)
            # Always draw, even when the fault cannot be applied: the
            # draw sequence must not depend on the guard outcomes.
            draw = draw_one()
            if probability <= 0.0 or draw >= probability:
                continue
            if dead_total >= cap or not self._may_kill(channel):
                continue
            self._kill(index, channel, now)
            dead_total += 1

    def _may_kill(self, channel: "Channel") -> bool:
        """Connectivity guard: keep every node a live out and in link."""
        if self._dead_out[channel.src_node] + 1 \
                > self._out_degree[channel.src_node] - 1:
            return False
        if self._dead_in[channel.dst_node] + 1 \
                > self._out_degree[channel.dst_node] - 1:
            return False
        return True

    def _kill(self, index: int, channel: "Channel", now: int) -> None:
        channel.dead = True
        self._dead_out[channel.src_node] += 1
        self._dead_in[channel.dst_node] += 1
        self.channel_faults += 1
        self.applied.append((now, channel.src_node, channel.dst_node))
        self._count("cascade_channel_faults")
        self._join_cluster(index, channel, now)
        self._boost_neighbours(index, channel, now)
        if self.repair_cycles > 0:
            due = now + self.repair_cycles
            due += (-due) % self.check_interval
            heapq.heappush(self._repairs, (due, index))
        if self.bus is not None:
            from ..obs.events import FaultActivated

            self.bus.emit(FaultActivated(
                now, "channel_dead", channel.src_node, channel.dst_node
            ))

    def _join_cluster(self, index: int, channel: "Channel",
                      now: int) -> None:
        """Attach this failure to a recent neighbour's cluster, if any."""
        best: Optional[int] = None
        for node in (channel.src_node, channel.dst_node):
            for other in self._touching[node]:
                if other == index:
                    continue
                cluster = self._cluster_of.get(other)
                if cluster is None:
                    continue
                last, _ = self._clusters[cluster]
                if now - last <= self.boost_cycles:
                    best = cluster
                    break
            if best is not None:
                break
        if best is None:
            best = self._next_cluster
            self._next_cluster += 1
            self._clusters[best] = (now, 0)
            self._count("cascade_clusters")
        last, members = self._clusters[best]
        members += 1
        self._clusters[best] = (now, members)
        self._cluster_of[index] = best
        if members == 2:
            # The cluster became a genuine cascade: a correlated
            # multi-channel outage, not an isolated failure.
            self.cascade_events += 1
            self._count("cascade_events")

    def _boost_neighbours(self, index: int, channel: "Channel",
                          now: int) -> None:
        until = now + self.boost_cycles
        for node in (channel.src_node, channel.dst_node):
            for other in self._touching[node]:
                if other != index and self._boost_until[other] < until:
                    self._boost_until[other] = until

    def _count(self, name: str) -> None:
        if self.stats is not None:
            self.stats.counters[name] += 1

    # -- reporting ---------------------------------------------------------

    def cluster_sizes(self) -> List[int]:
        """Member counts of every failure cluster, largest first."""
        return sorted(
            (members for _, members in self._clusters.values()),
            reverse=True,
        )


def _from_parameters(kwargs: dict, seed) -> LoadDependentFaults:
    for key in kwargs:
        if key not in PARAMETERS:
            raise ValueError(
                f"unknown cascade parameter {key!r} "
                f"(known: {', '.join(PARAMETERS)})"
            )
    kwargs.setdefault("seed", seed)
    return LoadDependentFaults(**kwargs)


def make_cascading(value, seed=0) -> LoadDependentFaults:
    """Coerce a config value into a LoadDependentFaults instance.

    Accepts an instance (returned as-is), ``True`` (all defaults), a
    dict of constructor kwargs, or a ``"k=v,k=v"`` string (the CLI
    form; bare ``"cascade"`` or ``""`` means defaults).
    """
    if isinstance(value, LoadDependentFaults):
        return value
    if value is True:
        return LoadDependentFaults(seed=seed)
    if isinstance(value, dict):
        return _from_parameters(dict(value), seed)
    if isinstance(value, str):
        text = value.strip()
        if text in ("", "cascade", "default"):
            return LoadDependentFaults(seed=seed)
        kwargs = {}
        for item in text.split(","):
            if not item.strip():
                continue
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(
                    f"cascade parameter {item!r} is not 'key=value'"
                )
            raw = raw.strip()
            try:
                parsed = int(raw)
            except ValueError:
                try:
                    parsed = float(raw)
                except ValueError:
                    parsed = raw
            kwargs[key.strip()] = parsed
        return _from_parameters(kwargs, seed)
    raise TypeError(
        f"cascade_faults must be an instance, True, dict, or string "
        f"(got {type(value).__name__})"
    )
