"""Campaign orchestration: declarative scenario grids at scale.

The layer between one-off sweeps and paper-scale evaluation:

* :mod:`~repro.campaign.spec` — :class:`CampaignSpec`, a declarative,
  dict/JSON round-trippable grid of scenarios with replications and
  derived seeds.
* :mod:`~repro.campaign.store` — :class:`CampaignStore`, a SQLite
  results store recording every point with full provenance (config
  hash, library version, schema version, wall time, timestamp).
* :mod:`~repro.campaign.runner` — :func:`run_campaign`, crash-safe and
  resumable execution on top of :mod:`repro.sim.parallel`, structured
  as explicit submit / lease / report phases.
* :mod:`~repro.campaign.fabric` — the distributed fabric:
  :class:`Coordinator` plus N lease-based :class:`Worker` processes
  sharding one campaign over a shared store, surviving worker loss
  (``cr-sim campaign run --workers-fabric N`` / ``campaign worker``).
* :mod:`~repro.campaign.report` — cross-campaign regression reports
  (markdown/CSV) using the replication significance machinery.
* :mod:`~repro.campaign.monitor` — a live atomic ``status.json``
  heartbeat written while a campaign runs, rendered by
  ``cr-sim campaign watch``.
* :mod:`~repro.campaign.library` — built-in campaigns
  (``fault-matrix``, ``paper-core``).
* :mod:`~repro.campaign.timeline` — the merged campaign timeline:
  every fabric process's journaled trace spans rendered as one
  Perfetto document (``cr-sim campaign timeline --perfetto``).

Quick start::

    from repro.campaign import CampaignStore, get_campaign, run_campaign

    spec = get_campaign("fault-matrix")
    with CampaignStore("results/campaigns.sqlite") as store:
        stats = run_campaign(spec, store, workers=None)
        print(stats.ran, "run,", stats.skipped, "resumed")
"""

from .._lazy import lazy_exports

#: submodule -> the names it contributes, each loaded on first use (a
#: fabric worker never reads the library, the report or the timeline).
_EXPORTS = {
    "spec": ("CampaignSpec", "Grid", "CampaignPoint"),
    "store": ("CampaignStore", "DEFAULT_DB_PATH", "STORE_SCHEMA_VERSION",
              "Lease"),
    "runner": ("run_campaign", "CampaignRunStats", "CampaignPointStatus"),
    "fabric": ("run_fabric", "spawn_worker", "Coordinator", "Worker",
               "FabricStats", "WorkerStats"),
    "report": ("compare_campaigns", "render_markdown", "comparison_to_csv",
               "campaign_markdown", "aggregate_scenarios"),
    "library": ("BUILTIN_CAMPAIGNS", "campaign_names", "get_campaign"),
    "monitor": ("CampaignMonitor", "read_status", "render_status",
                "status_path", "write_status"),
    "timeline": ("campaign_timeline", "default_timeline_path",
                 "timeline_summary", "write_campaign_timeline"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
