"""Built-in campaign library.

Each entry is a factory taking a :class:`~repro.experiments.common.Scale`
(QUICK by default, PAPER for paper-sized networks and sweeps) and
returning a :class:`~repro.campaign.spec.CampaignSpec`.  The scale
supplies the network size, run phases and load axis, so the same
campaign definition serves both the minutes-long smoke grid and the
paper-scale reproduction.

* ``fault-matrix`` — the FCR fault grid behind E07/E08: transient fault
  rate x permanent link faults x offered load.
* ``paper-core`` — the headline figures, point for point the grids of
  E01 (CR vs DOR, equal resources), E03/Fig. 11 (static gaps vs
  exponential backoff), and E04/Fig. 14(a,b) (CR shallow buffers vs
  DOR deep FIFOs; the ``e04-dor`` and ``e04-cr`` grids).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .spec import CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - the experiments load on demand
    from ..experiments.common import Scale

SpecFactory = Callable[["Scale"], CampaignSpec]


def _scale_base(scale: Scale) -> Dict[str, object]:
    return {
        "radix": scale.radix,
        "dims": scale.dims,
        "warmup": scale.warmup,
        "measure": scale.measure,
        "drain": scale.drain,
        "message_length": scale.message_length,
    }


def _fault_matrix(scale: Scale) -> CampaignSpec:
    base = _scale_base(scale)
    # Faulty runs need longer drains: kills and retries stretch the tail.
    base["drain"] = scale.drain * 2
    base["routing"] = "fcr"
    return CampaignSpec.from_dict({
        "name": "fault-matrix",
        "description": (
            "FCR graceful degradation: transient fault rate x permanent "
            "link faults x offered load (E07/E08 as one grid)"
        ),
        "base": base,
        "axes": {
            "fault_rate": [0.0, 1e-4, 1e-3, 5e-3],
            "permanent_faults": [0, 2],
            "load": list(scale.loads),
        },
        "seed": scale.seed,
        "metrics": [
            "latency_mean", "latency_p99", "throughput", "kill_rate",
            "undelivered", "corrupt_deliveries",
        ],
    })


def _paper_core(scale: Scale) -> CampaignSpec:
    base = _scale_base(scale)
    loads = list(scale.loads)
    # E04: a deep-saturation load past the ladder; part (b) at 4x length.
    e04 = {"message_length": [scale.message_length,
                              scale.message_length * 4],
           "load": loads + [round(loads[-1] + 0.2, 3)]}
    return CampaignSpec.from_dict({
        "name": "paper-core",
        "description": (
            "Headline figures: E01 CR-vs-DOR equal resources, "
            "E03/Fig.11 backoff policies, E04/Fig.14ab buffer depth"
        ),
        "grids": {
            "e01": {
                "base": {**base, "num_vcs": 2, "buffer_depth": 2},
                "axes": {"routing": ["cr", "dor"], "load": loads},
            },
            "e03": {
                "base": {**base, "routing": "cr", "timeout": "fixed:32"},
                "axes": {
                    "backoff": ["static:4", "static:16", "static:64",
                                "static:256", "exponential"],
                    "load": loads,
                },
            },
            "e04-dor": {
                "base": {**base, "num_vcs": 2, "routing": "dor"},
                "axes": {"buffer_depth": [2, 4, 8, 16], **e04},
            },
            "e04-cr": {
                "base": {**base, "num_vcs": 2, "routing": "cr",
                         "buffer_depth": 2},
                "axes": e04,
            },
        },
        "seed": scale.seed,
    })


def _workload_matrix(scale: Scale) -> CampaignSpec:
    """Production traffic shapes x schemes: does CR's edge survive?"""
    base = _scale_base(scale)
    base["drain"] = scale.drain * 2
    load = list(scale.loads)[-1]  # the heaviest load of the scale
    base["load"] = load
    return CampaignSpec.from_dict({
        "name": "workload-matrix",
        "description": (
            "production workload shapes (bursty MMPP, heavy-tailed "
            "Pareto, incast, client-server, phased) x routing scheme "
            "at the scale's heaviest load"
        ),
        "base": base,
        "axes": {
            "routing": ["cr", "fcr", "dor"],
            "workload": [
                "bernoulli",
                "mmpp",
                "pareto",
                "incast",
                "client-server",
                "phased",
            ],
        },
        "seed": scale.seed,
        "metrics": [
            "latency_mean", "latency_p99", "throughput", "kill_rate",
            "undelivered",
        ],
    })


def _cascade_stress(scale: Scale) -> CampaignSpec:
    """Sustained bursty overload with load-dependent cascading faults."""
    base = _scale_base(scale)
    # Repairs trickle in during the drain, so stragglers eventually
    # deliver; give them room (the quick scale drains ~10k cycles).
    base["drain"] = scale.drain * 4
    base["routing"] = "fcr"
    base["misrouting"] = True
    # Tuned so sustained load drives correlated multi-channel outages
    # (tens of cascade events at the quick scale) while the outage stays
    # bounded (max_dead_fraction) and everything still delivers once
    # repairs land — stress, not meltdown.
    base["cascade_faults"] = {
        "base_hazard": 1e-6,
        "load_gain": 8.0,
        "check_interval": 16,
        "neighbor_boost": 25.0,
        "boost_cycles": 192,
        "max_dead_fraction": 0.06,
        "repair_cycles": scale.measure * 2 // 5,
    }
    # Arm the built-in alert rules: this is exactly the correlated-
    # outage scenario the cascade-outage rule exists to detect, so the
    # campaign doubles as the alert engine's end-to-end exercise (CI
    # asserts the journaled cascade-outage episodes).
    base["alerts"] = True
    base["sample_interval"] = 200
    return CampaignSpec.from_dict({
        "name": "cascade-stress",
        "description": (
            "FCR under load-induced cascading link failures: bursty "
            "workloads drive per-channel hazards up, failures boost "
            "neighbouring hazards, repairs trickle in"
        ),
        "base": base,
        "axes": {
            "workload": ["bernoulli", "mmpp", "incast"],
            "load": list(scale.loads)[-2:],
        },
        "seed": scale.seed,
        "metrics": [
            "latency_mean", "latency_p99", "throughput", "kill_rate",
            "undelivered", "cascade_channel_faults", "cascade_events",
            "cascade_clusters", "cascade_repairs",
        ],
    })


BUILTIN_CAMPAIGNS: Dict[str, SpecFactory] = {
    "fault-matrix": _fault_matrix,
    "paper-core": _paper_core,
    "workload-matrix": _workload_matrix,
    "cascade-stress": _cascade_stress,
}


def campaign_names() -> List[str]:
    """Names of the built-in campaigns."""
    return sorted(BUILTIN_CAMPAIGNS)


def get_campaign(name: str, scale: Optional[Scale] = None) -> CampaignSpec:
    """Build the named built-in campaign at the given scale (QUICK by
    default)."""
    try:
        factory = BUILTIN_CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; built-ins: {campaign_names()}"
        ) from None
    if scale is None:
        from ..experiments.common import QUICK

        scale = QUICK
    return factory(scale)
