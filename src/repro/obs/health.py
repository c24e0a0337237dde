"""Composite network-health scoring for live telemetry.

The paper's operational claim is binary — the network keeps delivering
through deadlock and faults — but an operator watching a live run needs
a graded signal: *how close* is the network to not delivering?  This
module folds the engine's live state into one ``cr_network_health``
score in [0, 1] from four components, each itself in [0, 1]:

* **delivery** — messages delivered per message created (run-to-date);
  degrades when traffic is admitted but never arrives.
* **channel_liveness** — the fraction of link channels not currently
  dead (permanent faults, cascading outages).
* **kill_pressure** — ``1 / (1 + kills per delivered message)``; a
  kill-storm (many teardowns per delivery) drives this toward 0.
* **occupancy_headroom** — free fraction of router input-buffer
  capacity; sustained saturation drives this toward 0.

The score is the weighted mean of the components (:data:`WEIGHTS`).
It is served as the ``cr_network_health`` and
``cr_network_health_component`` gauges of
:func:`~repro.obs.metrics.engine_metrics`, and computed only on demand
— at sampler boundaries by the telemetry publisher and alert engine —
never in the per-cycle hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine

#: component -> weight in the composite score (normalised at use).
WEIGHTS: Dict[str, float] = {
    "delivery": 0.4,
    "channel_liveness": 0.2,
    "kill_pressure": 0.2,
    "occupancy_headroom": 0.2,
}


def dead_channel_fraction(engine: "Engine") -> float:
    """Fraction of link channels currently dead (0.0 on a clean net)."""
    links = engine.network.link_channels
    if not links:
        return 0.0
    return sum(1 for channel in links if channel.dead) / len(links)


def buffer_fill_fraction(engine: "Engine") -> float:
    """Occupied fraction of total router input-buffer capacity."""
    from ..stats.trace import buffer_fill

    fill = buffer_fill(engine).values()
    occupied = sum(held for held, _ in fill)
    capacity = sum(depth for _, depth in fill)
    if capacity == 0:
        return 0.0
    return occupied / capacity


def health_components(engine: "Engine") -> Dict[str, float]:
    """The four health components, each clamped to [0, 1]."""
    counters = engine.stats.counters
    created = counters["messages_created"]
    delivered = counters["messages_delivered"]
    delivery = min(1.0, delivered / created) if created else 1.0
    kills = counters["kills"]
    kill_pressure = 1.0 / (1.0 + (kills / delivered if delivered
                                  else float(kills)))
    return {
        "delivery": delivery,
        "channel_liveness": 1.0 - dead_channel_fraction(engine),
        "kill_pressure": kill_pressure,
        "occupancy_headroom": 1.0 - buffer_fill_fraction(engine),
    }


def health_score(components: Dict[str, float]) -> float:
    """Weighted mean of the components under :data:`WEIGHTS`."""
    total = sum(WEIGHTS[name] for name in components if name in WEIGHTS)
    if not total:
        return 1.0
    return sum(
        WEIGHTS[name] * max(0.0, min(1.0, value))
        for name, value in components.items()
        if name in WEIGHTS
    ) / total

