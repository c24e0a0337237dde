"""Declarative alert rules evaluated on sampler boundaries.

The alert engine turns the live run signals the repo already collects
(:class:`~repro.obs.sampler.IntervalSampler` series, ``StatsCollector``
counters, watchdog slack, the composite health score) into operator
alerts with Prometheus-style semantics: a rule holds a *predicate* over
one metric, must hold for ``for_intervals`` consecutive sampler windows
before it **fires** (hysteresis), and **resolves** the first window the
predicate stops holding.  Evaluation happens only inside
``IntervalSampler._close`` — the per-cycle hot path never sees the
alert engine, so an untraced run pays nothing and an armed run pays a
few dict lookups per sampling boundary
(:mod:`benchmarks.bench_overhead` bounds this under 3%).

Predicate kinds:

* ``threshold`` — ``metric <op> value`` (ops ``>``, ``>=``, ``<``,
  ``<=``); a missing/None metric never holds.
* ``rate`` — the metric rose by at least ``value`` since the previous
  window (rate-of-change detection, e.g. an occupancy ramp).
* ``absence`` — the metric is None or missing (e.g. ``latency_mean``
  of a window that delivered nothing).
* ``baseline_ratio`` — the metric reached ``value`` times its rolling
  minimum positive value (the :func:`~repro.campaign.report.saturation_onset`
  rule, live).

The evaluation context per window contains every key of the
:class:`~repro.obs.sampler.IntervalSampler` sample, a
``<counter>_delta`` entry per ``StatsCollector`` counter (the window's
increment), and the derived signals ``delivery_ratio``,
``dead_channel_fraction``, ``watchdog_fraction``, ``network_health``
and ``health_<component>``.

Firing/resolving transitions emit typed
:class:`~repro.obs.events.AlertEvent` s on the engine's bus (when one
is attached), surface as the ``cr_alerts_firing`` gauge, and are
journaled per campaign point into the store's ``alerts`` table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

from .health import dead_channel_fraction, health_components, health_score

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine

SEVERITIES = ("info", "warning", "critical")
KINDS = ("threshold", "rate", "absence", "baseline_ratio")
OPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert rule (JSON round-trippable)."""

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    #: consecutive sampler windows the predicate must hold to fire.
    for_intervals: int = 1
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule needs a name")
        if not self.metric and self.kind != "absence":
            raise ValueError(f"rule {self.name!r} needs a metric")
        if self.kind not in KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {KINDS}"
            )
        if self.kind == "threshold" and self.op not in OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown op {self.op!r}; "
                f"choose from {OPS}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: unknown severity "
                f"{self.severity!r}; choose from {SEVERITIES}"
            )
        if self.for_intervals < 1:
            raise ValueError(
                f"rule {self.name!r}: for_intervals must be >= 1"
            )
        if self.kind == "baseline_ratio" and self.value <= 0:
            raise ValueError(
                f"rule {self.name!r}: baseline_ratio needs a positive "
                f"factor"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "kind": self.kind,
            "op": self.op,
            "value": self.value,
            "for": self.for_intervals,
            "severity": self.severity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlertRule":
        known = {"name", "metric", "kind", "op", "value", "for",
                 "for_intervals", "severity", "description"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"alert rule {data.get('name', '?')!r}: unknown "
                f"field(s) {sorted(unknown)}"
            )
        out = dict(data)
        if "for" in out:
            out["for_intervals"] = out.pop("for")
        return cls(**out)

    def describe(self, value: Any) -> str:
        """A human line for events, heartbeats, and journals."""
        if self.kind == "absence":
            body = f"{self.metric} absent"
        elif self.kind == "rate":
            body = f"{self.metric} rose >= {self.value}/interval"
        elif self.kind == "baseline_ratio":
            body = f"{self.metric} >= {self.value}x baseline"
        else:
            body = f"{self.metric} {self.op} {self.value}"
        if isinstance(value, (int, float)):
            body += f" (now {value:.4g})"
        if self.for_intervals > 1:
            body += f" for {self.for_intervals} intervals"
        return body


def builtin_rules() -> List[AlertRule]:
    """The built-in operator rules (fresh instances)."""
    return [
        AlertRule(
            "kill-storm", metric="kill_rate", op=">=", value=1.0,
            for_intervals=2, severity="critical",
            description="Kill wavefronts outnumber deliveries: the "
                        "network is tearing down more worms than it "
                        "completes.",
        ),
        AlertRule(
            "cascade-outage", metric="cascade_channel_faults_delta",
            op=">=", value=1.0, severity="critical",
            description="The load-dependent fault model killed at "
                        "least one channel this window (correlated "
                        "outage in progress).",
        ),
        AlertRule(
            "delivery-slo", metric="delivery_ratio", op="<", value=0.9,
            for_intervals=3, severity="warning",
            description="Fewer than 90% of the messages created in "
                        "recent windows were delivered (delivery SLO "
                        "breach).",
        ),
        AlertRule(
            "watchdog-near-trip", metric="watchdog_fraction", op=">=",
            value=0.5, severity="critical",
            description="More than half the deadlock-watchdog budget "
                        "has passed without network progress.",
        ),
        AlertRule(
            "saturation-onset", metric="latency_mean",
            kind="baseline_ratio", value=2.0, for_intervals=2,
            severity="info",
            description="Interval latency reached twice its unloaded "
                        "baseline: the run is entering saturation.",
        ),
    ]


#: names of the built-in rules (stable, documented in OBSERVABILITY.md).
BUILTIN_RULE_NAMES = tuple(rule.name for rule in builtin_rules())


def load_rules(
    spec: Union[bool, str, Dict[str, Any], Iterable[Any], AlertRule],
) -> List[AlertRule]:
    """Coerce an alert-rules spec into a list of :class:`AlertRule`.

    Accepts ``True``/``"builtin"`` (the built-in rules), a path to a
    JSON file (``{"rules": [...]}`` or a bare list), a dict in either
    of those shapes, a single rule dict, an :class:`AlertRule`, or an
    iterable of rules/dicts.
    """
    if spec is True or spec == "builtin":
        return builtin_rules()
    if isinstance(spec, AlertRule):
        return [spec]
    if isinstance(spec, str):
        with open(spec, "r", encoding="utf-8") as handle:
            return load_rules(json.load(handle))
    if isinstance(spec, dict):
        if "rules" in spec:
            return load_rules(spec["rules"])
        return [AlertRule.from_dict(spec)]
    if isinstance(spec, (list, tuple)):
        out = []
        for item in spec:
            if isinstance(item, AlertRule):
                out.append(item)
            elif isinstance(item, dict):
                out.append(AlertRule.from_dict(item))
            else:
                raise ValueError(
                    f"alert rules list holds a {type(item).__name__}, "
                    f"expected dict or AlertRule"
                )
        if not out:
            raise ValueError("alert rules spec is empty")
        return out
    raise ValueError(f"cannot load alert rules from {spec!r}")


def rules_to_json(rules: Iterable[AlertRule]) -> str:
    """The rules as a JSON document :func:`load_rules` reads back."""
    return json.dumps(
        {"rules": [rule.to_dict() for rule in rules]},
        indent=2, sort_keys=True,
    )


class AlertEngine:
    """Evaluates rules per sampler window; tracks firing state.

    Installed as an :class:`~repro.obs.sampler.IntervalSampler`
    listener (``SimConfig(alerts=...)`` wires this), so evaluation
    cost lands only on sampling boundaries.  Journal rows — one per
    firing *episode*, updated in place on resolve — are exposed via
    :meth:`rows` and land in ``report["alerts"]``.
    """

    def __init__(self, rules: Optional[Iterable[AlertRule]] = None) -> None:
        self.rules = (list(rules) if rules is not None
                      else builtin_rules())
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alert rule names in {names}")
        self.episodes: List[Dict[str, Any]] = []
        self.evaluations = 0
        self._active: Dict[str, Dict[str, Any]] = {}
        self._streaks: Dict[str, int] = {r.name: 0 for r in self.rules}
        self._prev: Dict[str, float] = {}
        self._baselines: Dict[str, float] = {}
        self._counter_base: Dict[str, float] = {}

    # -- state ----------------------------------------------------------

    def firing_by_severity(self) -> Dict[str, int]:
        """severity -> currently-firing episode count (all severities)."""
        out = {severity: 0 for severity in SEVERITIES}
        for episode in self._active.values():
            out[episode["severity"]] += 1
        return out

    def rows(self) -> List[Dict[str, Any]]:
        """Journal rows (one per episode) for reports and the store."""
        return [dict(episode) for episode in self.episodes]

    def summary(self) -> Dict[str, Any]:
        return {
            "rules": len(self.rules),
            "evaluations": self.evaluations,
            "fired": len(self.episodes),
            "firing": len(self._active),
            "by_severity": self.firing_by_severity(),
        }

    # -- evaluation -----------------------------------------------------

    def context(self, engine: "Engine",
                sample: Dict[str, Any]) -> Dict[str, Any]:
        """The metric namespace one window's rules evaluate over."""
        ctx = dict(sample)
        for name, value in engine.stats.counters.items():
            ctx[f"{name}_delta"] = value - self._counter_base.get(name, 0)
            self._counter_base[name] = value
        created = ctx.get("created_messages") or 0
        delivered = ctx.get("delivered_messages") or 0
        ctx["delivery_ratio"] = (min(1.0, delivered / created)
                                 if created else 1.0)
        ctx["dead_channel_fraction"] = dead_channel_fraction(engine)
        ctx["watchdog_fraction"] = (
            (engine.now - engine.last_progress) / engine.watchdog
            if engine.watchdog else 0.0
        )
        components = health_components(engine)
        ctx["network_health"] = health_score(components)
        for name, value in components.items():
            ctx[f"health_{name}"] = value
        return ctx

    def _holds(self, rule: AlertRule, value: Any) -> bool:
        if rule.kind == "absence":
            return value is None
        if not isinstance(value, (int, float)):
            return False
        if rule.kind == "threshold":
            if rule.op == ">":
                return value > rule.value
            if rule.op == ">=":
                return value >= rule.value
            if rule.op == "<":
                return value < rule.value
            return value <= rule.value
        if rule.kind == "rate":
            prev = self._prev.get(rule.name)
            self._prev[rule.name] = float(value)
            return prev is not None and (value - prev) >= rule.value
        # baseline_ratio: rolling min of positive values, current
        # included — the live twin of report.saturation_onset().
        baseline = self._baselines.get(rule.name)
        if value > 0 and (baseline is None or value < baseline):
            baseline = self._baselines[rule.name] = float(value)
        return (baseline is not None and value > 0
                and value >= rule.value * baseline)

    def on_sample(self, engine: "Engine", sample: Dict[str, Any]) -> None:
        """Evaluate every rule against one closed sampler window."""
        ctx = self.context(engine, sample)
        end = sample["end"]
        bus = engine.bus
        for rule in self.rules:
            value = ctx.get(rule.metric)
            holds = self._holds(rule, value)
            streak = self._streaks[rule.name] + 1 if holds else 0
            self._streaks[rule.name] = streak
            active = self._active.get(rule.name)
            if active is None and streak >= rule.for_intervals:
                episode = {
                    "rule": rule.name,
                    "severity": rule.severity,
                    "state": "firing",
                    "fired_at": end,
                    "resolved_at": None,
                    "value": (float(value)
                              if isinstance(value, (int, float))
                              else None),
                    "message": rule.describe(value),
                }
                self._active[rule.name] = episode
                self.episodes.append(episode)
                if bus is not None:
                    from .events import AlertEvent

                    bus.emit(AlertEvent(
                        end, rule.name, rule.severity, "firing",
                        episode["value"], episode["message"],
                    ))
            elif active is not None and not holds:
                active["state"] = "resolved"
                active["resolved_at"] = end
                del self._active[rule.name]
                if bus is not None:
                    from .events import AlertEvent

                    bus.emit(AlertEvent(
                        end, rule.name, rule.severity, "resolved",
                        (float(value)
                         if isinstance(value, (int, float)) else None),
                        rule.describe(value),
                    ))
        self.evaluations += 1
