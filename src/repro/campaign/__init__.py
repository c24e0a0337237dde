"""Campaign orchestration: declarative scenario grids at scale.

The layer between one-off sweeps and paper-scale evaluation:

* :mod:`~repro.campaign.spec` — :class:`CampaignSpec`, a declarative,
  dict/JSON round-trippable grid of scenarios with replications and
  derived seeds.
* :mod:`~repro.campaign.store` — :class:`CampaignStore`, a SQLite
  results store recording every point with full provenance (config
  hash, library version, schema version, wall time, timestamp).
* :mod:`~repro.campaign.runner` — the submit / lease / report phases,
  and :func:`run_campaign`: one in-process fabric :class:`Worker`.
* :mod:`~repro.campaign.fabric` — the fabric: :class:`Coordinator`
  plus lease-based :class:`Worker` processes sharding one campaign
  over a shared store, surviving worker loss (``cr-sim campaign run
  --workers N`` / ``campaign worker``).
* :mod:`~repro.campaign.report` — cross-campaign regression reports
  (markdown/CSV) using the replication significance machinery.
* :mod:`~repro.campaign.monitor` — the heartbeat, read from the
  store, the campaign's only record: ``CampaignView`` folds what the
  journal holds for each settled point through
  :class:`CampaignMonitor` (the ETA is remaining points ÷ the settle
  rate); ``cr-sim campaign watch`` renders it and an executor given a
  telemetry server publishes its ``cr_campaign_*`` counts on
  ``/metrics``.
* :mod:`~repro.campaign.library` — built-in campaigns
  (``fault-matrix``, ``paper-core``).
* :mod:`~repro.campaign.timeline` — the merged campaign timeline:
  every fabric process's journaled trace spans rendered as one
  Perfetto document (``cr-sim campaign timeline --perfetto``).

Quick start::

    from repro.campaign import (CampaignStore, get_campaign, run_campaign,
                                run_fabric)

    spec = get_campaign("fault-matrix")
    with CampaignStore("results/campaigns.sqlite") as store:
        stats = run_campaign(spec, store)
        print(stats.ran, "run,", stats.skipped, "resumed")

    # or across four worker processes:
    run_fabric(spec, "results/campaigns.sqlite", workers=4)
"""

from .._lazy import lazy_exports

#: submodule -> the names it contributes, each loaded on first use (a
#: fabric worker never reads the library or the report).  Only names
#: something imports from the package are here; the rest (the timeline,
#: the stats records, ``Lease``, ``spawn_worker``) are imported from
#: their submodules.
_EXPORTS = {
    "spec": ("CampaignSpec", "Grid"),
    "store": ("CampaignStore", "DEFAULT_DB_PATH"),
    "runner": ("run_campaign", "CampaignPointStatus"),
    "fabric": ("run_fabric", "Coordinator", "Worker"),
    "report": ("compare_campaigns", "render_markdown", "comparison_to_csv",
               "campaign_markdown"),
    "library": ("BUILTIN_CAMPAIGNS", "campaign_names", "get_campaign"),
    "monitor": ("CampaignMonitor", "render_status", "write_status"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
