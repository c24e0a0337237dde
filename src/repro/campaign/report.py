"""Cross-campaign comparison and regression reports.

Two stored campaigns are compared scenario-by-scenario: replications of
each scenario are aggregated by :func:`summarize_samples`, and a
baseline/candidate gap counts as *significant* only when the mean +/-
half-width intervals separate (:func:`intervals_separated`) — a
conservative rule.

Every report row carries provenance: the config hashes and library
versions of both sides, so a "regression" caused by comparing rows from
different simulator versions is visible rather than mysterious.
Reports render to markdown (:func:`render_markdown`) and flat CSV rows
(:func:`comparison_to_csv`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.export import rows_to_csv
from .store import CampaignStore

#: metrics where a larger value is an improvement (others: smaller).
HIGHER_IS_BETTER = {"throughput", "messages_delivered"}

DEFAULT_REPORT_METRICS = ("latency_mean", "throughput")

#: a scenario key: grid label + sorted axis (name, value) pairs.
ScenarioKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def summarize_samples(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics over independent samples of one metric.

    Returns ``{mean, std, min, max, rel_halfwidth, n}`` where ``std``
    is the sample standard deviation (``n - 1`` denominator; 0.0 when
    ``n == 1``) and ``rel_halfwidth`` approximates a 95% confidence
    half-width relative to the mean (1.96 * std / sqrt(n) / mean).
    """
    count = len(values)
    if count == 0:
        raise ValueError("need at least one sample")
    mean = sum(values) / count
    # Sample (n-1) variance: the population (n) denominator made the
    # normal half-width below systematically overconfident at small n.
    if count > 1:
        var = sum((v - mean) ** 2 for v in values) / (count - 1)
    else:
        var = 0.0
    std = math.sqrt(var)
    halfwidth = 1.96 * std / math.sqrt(count) if count > 1 else 0.0
    return {
        "mean": mean,
        "std": std,
        "min": min(values),
        "max": max(values),
        "rel_halfwidth": halfwidth / mean if mean else 0.0,
        "n": count,
    }


def intervals_separated(
    summary_a: Dict[str, float],
    summary_b: Dict[str, float],
    higher_is_better: bool = True,
) -> bool:
    """True when A beats B with non-overlapping mean +/- halfwidth.

    Conservative by construction -- overlapping intervals return False
    even when a formal test might find a difference.
    """
    half_a = summary_a["rel_halfwidth"] * summary_a["mean"]
    half_b = summary_b["rel_halfwidth"] * summary_b["mean"]
    if higher_is_better:
        return summary_a["mean"] - half_a > summary_b["mean"] + half_b
    return summary_a["mean"] + half_a < summary_b["mean"] - half_b


def _scenario_key(point: Dict[str, Any]) -> ScenarioKey:
    axes = tuple(sorted(point["scenario"].items()))
    return (point.get("grid", ""), axes)


def _label(key: ScenarioKey) -> str:
    grid, axes = key
    body = ", ".join(f"{name}={value}" for name, value in axes)
    return f"{grid}: {body}" if grid else body


def aggregate_scenarios(
    store: CampaignStore,
    campaign: str,
    metrics: Sequence[str] = DEFAULT_REPORT_METRICS,
) -> Dict[ScenarioKey, Dict[str, Any]]:
    """Aggregate a campaign's ok rows per scenario across replications.

    Returns ``{scenario_key: {"summaries": {metric: summary},
    "hashes": [...], "versions": [...], "n": int}}``.
    """
    grouped: Dict[ScenarioKey, List[Dict[str, Any]]] = {}
    for point in store.points(campaign, status="ok"):
        grouped.setdefault(_scenario_key(point), []).append(point)
    out: Dict[ScenarioKey, Dict[str, Any]] = {}
    for key, points in grouped.items():
        summaries = {}
        for metric in metrics:
            values = [float(p["report"][metric]) for p in points
                      if metric in p["report"]]
            if values:
                summaries[metric] = summarize_samples(values)
        out[key] = {
            "summaries": summaries,
            "hashes": sorted({str(p["config_hash"]) for p in points}),
            "versions": sorted({p["repro_version"] for p in points}),
            "n": len(points),
            # Journaled provenance, surfaced: mean wall seconds per
            # point across this scenario's replications.
            "wall_time_mean": (
                sum(float(p.get("wall_time") or 0.0) for p in points)
                / len(points)
            ),
        }
    return out


def compare_campaigns(
    store: CampaignStore,
    baseline: str,
    candidate: str,
    metrics: Sequence[str] = DEFAULT_REPORT_METRICS,
) -> List[Dict[str, Any]]:
    """Scenario-matched comparison rows between two stored campaigns.

    One row per (shared scenario, metric): baseline and candidate means
    with half-widths, absolute and relative delta, a ``significant``
    verdict, and both sides' provenance.  Scenarios present on only one
    side are emitted with status ``baseline-only``/``candidate-only``
    so coverage gaps are visible.
    """
    base = aggregate_scenarios(store, baseline, metrics)
    cand = aggregate_scenarios(store, candidate, metrics)
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(base) | set(cand), key=_label):
        label = _label(key)
        if key not in base or key not in cand:
            rows.append({
                "scenario": label,
                "metric": "",
                "status": ("baseline-only" if key in base
                           else "candidate-only"),
            })
            continue
        b, c = base[key], cand[key]
        for metric in metrics:
            if metric not in b["summaries"] or metric not in c["summaries"]:
                continue
            sb, sc = b["summaries"][metric], c["summaries"][metric]
            higher = metric in HIGHER_IS_BETTER
            improved = intervals_separated(sc, sb, higher_is_better=higher)
            regressed = intervals_separated(sb, sc, higher_is_better=higher)
            delta = sc["mean"] - sb["mean"]
            rows.append({
                "scenario": label,
                "metric": metric,
                "status": ("improved" if improved
                           else "regressed" if regressed else "~"),
                "baseline_mean": sb["mean"],
                "baseline_halfwidth": sb["rel_halfwidth"] * sb["mean"],
                "candidate_mean": sc["mean"],
                "candidate_halfwidth": sc["rel_halfwidth"] * sc["mean"],
                "delta": delta,
                "delta_pct": (100.0 * delta / sb["mean"]
                              if sb["mean"] else 0.0),
                "significant": improved or regressed,
                "n_baseline": b["n"],
                "n_candidate": c["n"],
                "baseline_hashes": "+".join(b["hashes"]),
                "candidate_hashes": "+".join(c["hashes"]),
                "baseline_version": "+".join(b["versions"]),
                "candidate_version": "+".join(c["versions"]),
            })
    return rows


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_markdown(
    rows: List[Dict[str, Any]],
    baseline: str,
    candidate: str,
) -> str:
    """A markdown regression report over :func:`compare_campaigns` rows.

    Each row shows both means with 95% half-widths, the delta, the
    interval-separation verdict, and the provenance (config hashes,
    abbreviated, plus library versions) of every aggregate.
    """
    lines = [
        f"# Campaign comparison: {baseline} vs {candidate}",
        "",
        f"Baseline: `{baseline}` — Candidate: `{candidate}`. "
        "A delta is *significant* when the mean ± 95% half-width "
        "intervals do not overlap.",
        "",
        "| scenario | metric | baseline | candidate | delta | verdict "
        "| provenance (base → cand) |",
        "|---|---|---|---|---|---|---|",
    ]
    comparisons = [row for row in rows if row.get("metric")]
    onesided = [row for row in rows if not row.get("metric")]
    for row in comparisons:
        base = (f"{_fmt(row['baseline_mean'])} "
                f"± {_fmt(row['baseline_halfwidth'])} "
                f"(n={row['n_baseline']})")
        cand = (f"{_fmt(row['candidate_mean'])} "
                f"± {_fmt(row['candidate_halfwidth'])} "
                f"(n={row['n_candidate']})")
        delta = f"{_fmt(row['delta'])} ({row['delta_pct']:+.1f}%)"
        prov = (
            f"`{_abbrev(row['baseline_hashes'])}`@{row['baseline_version']}"
            f" → "
            f"`{_abbrev(row['candidate_hashes'])}`@{row['candidate_version']}"
        )
        lines.append(
            f"| {row['scenario']} | {row['metric']} | {base} | {cand} "
            f"| {delta} | {row['status']} | {prov} |"
        )
    if onesided:
        lines += ["", "## Scenarios without a counterpart", ""]
        for row in onesided:
            lines.append(f"- `{row['scenario']}` — {row['status']}")
    regressions = [r for r in comparisons if r["status"] == "regressed"]
    improvements = [r for r in comparisons if r["status"] == "improved"]
    lines += [
        "",
        f"**{len(regressions)} regression(s), "
        f"{len(improvements)} improvement(s), "
        f"{len(comparisons) - len(regressions) - len(improvements)} "
        f"within noise.**",
    ]
    return "\n".join(lines)


def _abbrev(hashes: str) -> str:
    return "+".join(h[:10] if h != "None" else "?" for h in
                    hashes.split("+"))


def comparison_to_csv(rows: List[Dict[str, Any]], path: str) -> int:
    """Write comparison rows (full hashes, not abbreviated) to CSV."""
    return rows_to_csv([row for row in rows if row.get("metric")], path)


def saturation_onset(series: List[Dict[str, Any]]) -> Optional[int]:
    """The cycle at which a run's mean latency left its baseline regime.

    The baseline is the smallest positive interval ``latency_mean`` (the
    unloaded steady state); saturation onset is the end cycle of the
    first interval at or above twice it.  Returns None when the
    run never saturated or the metric never went positive (e.g. every
    latency sample landed outside the measurement window).
    """
    values = [
        # Undefined interval values (e.g. latency of an empty window)
        # count as "no signal", the same as 0.
        (sample["end"], float(sample.get("latency_mean") or 0.0))
        for sample in series
    ]
    positive = [value for _, value in values if value > 0]
    if not positive:
        return None
    baseline = min(positive)
    for end, value in values:
        if value >= 2.0 * baseline and value > 0:
            return end
    return None


def campaign_markdown(store: CampaignStore, campaign: str) -> str:
    """A single-campaign markdown summary (per-scenario aggregates)."""
    metrics = DEFAULT_REPORT_METRICS
    aggregated = aggregate_scenarios(store, campaign, metrics)
    summary = store.summary(campaign)
    alert_counts = store.alert_counts(campaign)
    scenario_alerts: Dict[ScenarioKey, int] = {}
    for point in store.points(campaign, status="ok"):
        key = _scenario_key(point)
        scenario_alerts[key] = scenario_alerts.get(key, 0) + sum(
            alert_counts.get(point["point_id"], {}).values()
        )
    lines = [
        f"# Campaign `{campaign}`",
        "",
        f"{summary['ok']} ok point(s), {summary['failed']} failed, "
        f"{summary['wall_time']:.1f}s simulated, "
        f"{summary['versions']} library version(s).",
        "",
        "| scenario | " + " | ".join(metrics)
        + " | wall s/point | n | alerts | provenance |",
        "|---" * (len(metrics) + 5) + "|",
    ]
    for key in sorted(aggregated, key=_label):
        entry = aggregated[key]
        cells = []
        for metric in metrics:
            s = entry["summaries"].get(metric)
            cells.append(
                f"{_fmt(s['mean'])} ± "
                f"{_fmt(s['rel_halfwidth'] * s['mean'])}"
                if s else "—"
            )
        prov = (f"`{_abbrev('+'.join(entry['hashes']))}`"
                f"@{'+'.join(entry['versions'])}")
        fired = scenario_alerts.get(key, 0)
        lines.append(
            f"| {_label(key)} | " + " | ".join(cells)
            + f" | {_fmt(entry['wall_time_mean'])} | {entry['n']} "
            f"| {fired if fired else '—'} "
            f"| {prov} |"
        )
    failed = store.rows(campaign, status="failed")
    if failed:
        lines += ["", "## Failed points", ""]
        for row in failed:
            lines.append(
                f"- `{row['point_id']}` (attempts={row['attempts']}): "
                f"{row['error']}"
            )
    episodes_by_point = store.alerts(campaign)
    if episodes_by_point:
        lines += [
            "",
            "## Alerts",
            "",
            "Alert episodes journaled by the live rules engine "
            "(runs with `alerts` armed); *firing* episodes never "
            "resolved before the run ended.",
            "",
            "| point | rule | severity | state | fired at | message |",
            "|---|---|---|---|---|---|",
        ]
        for point_id in sorted(episodes_by_point):
            for ep in episodes_by_point[point_id]:
                lines.append(
                    f"| `{point_id}` | {ep['rule']} | {ep['severity']} "
                    f"| {ep['state']} | {ep['fired_at']} "
                    f"| {ep['message']} |"
                )
    series_by_point = store.timeseries(campaign)
    if series_by_point:
        lines += [
            "",
            "## Time series",
            "",
            "Interval-sampled points (runs with `sample_interval` set). "
            "*Saturation onset* is the first interval where mean latency "
            "reached 2x its per-run baseline.",
            "",
            "| point | samples | peak latency | peak occupancy "
            "| saturation onset |",
            "|---|---|---|---|---|",
        ]
        for point_id in sorted(series_by_point):
            series = series_by_point[point_id]
            peak_latency = max(
                (s["latency_mean"] if s.get("latency_mean") is not None
                 else 0.0)
                for s in series
            )
            peak_occupancy = max(s["occupancy"] for s in series)
            onset = saturation_onset(series)
            lines.append(
                f"| `{point_id}` | {len(series)} "
                f"| {_fmt(peak_latency)} | {peak_occupancy} "
                f"| {f'cycle {onset}' if onset is not None else '—'} |"
            )
    return "\n".join(lines)
