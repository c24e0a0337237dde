"""Declarative campaign specifications.

A *campaign* is a named grid of scenarios — schemes x topologies x
fault schedules x traffic patterns x loads — with a replication count
and derived seeds.  :class:`CampaignSpec` is deliberately plain: it
round-trips through ``dict`` (and therefore JSON) with no dependencies,
so campaigns can live in version control, be shipped as built-ins
(:mod:`repro.campaign.library`), or be stored verbatim in the results
database for provenance.

A spec holds one or more *grids*.  Each grid has ``base`` (fixed
:class:`~repro.sim.config.SimConfig` field overrides) and ``axes``
(field name -> list of values); the grid's scenarios are the cartesian
product of its axes.  Every scenario runs ``replications`` times with
derived seeds (``seed + replication``), so stored campaigns carry
enough samples for the significance machinery in
:mod:`repro.sim.replicate`.

Policy-valued fields (``timeout``, ``backoff``) accept compact string
encodings — ``"fixed:32"``, ``"static:16"``, ``"exponential"`` — so a
spec stays a plain dict while still sweeping Fig. 11-style policy
comparisons.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.backoff import ExponentialBackoff, StaticGap
from ..core.timeout import FixedTimeout, LengthScaledTimeout
from ..sim.config import SimConfig
from ..sim.parallel import config_cache_key

#: SimConfig field names a grid may set (seed is derived, never set).
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}


def _decode_timeout(text: str) -> object:
    kind, _, arg = text.partition(":")
    if kind == "fixed":
        return FixedTimeout(int(arg))
    if kind == "length_scaled":
        return LengthScaledTimeout(float(arg)) if arg else LengthScaledTimeout()
    raise ValueError(f"unknown timeout encoding {text!r}")


def _decode_backoff(text: str) -> object:
    kind, _, arg = text.partition(":")
    if kind == "static":
        return StaticGap(int(arg))
    if kind == "exponential":
        return ExponentialBackoff(int(arg)) if arg else ExponentialBackoff()
    raise ValueError(f"unknown backoff encoding {text!r}")


_DECODERS = {"timeout": _decode_timeout, "backoff": _decode_backoff}


def decode_field(name: str, value: Any) -> Any:
    """Turn a spec-level value into the SimConfig field value.

    Strings for the policy fields are decoded to policy objects; every
    other value passes through unchanged.
    """
    if isinstance(value, str) and name in _DECODERS:
        return _DECODERS[name](value)
    return value


def _mapping(value: Any, where: str) -> Mapping[str, Any]:
    """``value``, once it is known to be the mapping a spec needs there
    (a spec file is outside input: its shape is checked, not assumed)."""
    if not isinstance(value, Mapping):
        raise ValueError(
            f"{where} must be a mapping, got {type(value).__name__}"
        )
    return value


def _check_fields(mapping: Mapping[str, Any], where: str) -> None:
    for name in mapping:
        if name == "seed":
            raise ValueError(
                f"{where} must not set 'seed'; seeds are derived from "
                f"the spec seed and the replication index"
            )
        if name not in _CONFIG_FIELDS:
            raise ValueError(
                f"{where} names unknown SimConfig field {name!r}"
            )


@dataclass(frozen=True)
class Grid:
    """One sub-grid of a campaign: fixed ``base`` fields x ``axes``."""

    label: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_fields(self.base, f"grid {self.label!r} base")
        _check_fields(self.axes, f"grid {self.label!r} axes")
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"grid {self.label!r} axis {name!r} needs a "
                    f"non-empty list of values"
                )

    @property
    def size(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out

    def scenarios(self) -> Iterator[Dict[str, Any]]:
        """Cartesian product of the axes, in axis-insertion order."""
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))


def _grid_from_dict(label: str, body: Any) -> Grid:
    """One ``{base, axes}`` body of the dict format."""
    where = f"grid {label!r}"
    body = _mapping(body, where)
    axes = _mapping(body.get("axes", {}), f"{where} axes")
    return Grid(
        label=label,
        base=dict(_mapping(body.get("base", {}), f"{where} base")),
        # A scalar stays as it is for Grid to refuse by name.
        axes={
            name: list(values) if isinstance(values, (list, tuple))
            else values
            for name, values in axes.items()
        },
    )


@dataclass(frozen=True)
class CampaignPoint:
    """One runnable point: a scenario at one replication."""

    point_id: str  #: stable id, e.g. ``"e01/routing=cr/load=0.1/rep=0"``
    grid: str  #: label of the grid the scenario came from
    scenario: Dict[str, Any]  #: the axis values (spec-level, undecoded)
    replication: int
    config: SimConfig  #: fully-resolved simulation config

    @cached_property
    def config_hash(self) -> Optional[str]:
        """``config_cache_key(config)``, worked out once per point."""
        return config_cache_key(self.config)


@dataclass(frozen=True)
class CampaignSpec:
    """A named, replicated grid of scenarios.

    Construct directly, or from a plain dict via :meth:`from_dict`::

        CampaignSpec.from_dict({
            "name": "fcr-faults",
            "base": {"routing": "fcr", "radix": 4},
            "axes": {"fault_rate": [0.0, 1e-3], "load": [0.1, 0.2]},
            "replications": 2,
        })
    """

    name: str
    grids: Tuple[Grid, ...]
    description: str = ""
    replications: int = 1
    seed: int = 42
    #: report fields persisted per point by the campaign store
    metrics: Tuple[str, ...] = (
        "latency_mean", "latency_p95", "latency_p99", "throughput",
        "kill_rate", "pad_overhead", "undelivered",
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.grids:
            raise ValueError(f"campaign {self.name!r} has no grids")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        labels = [grid.label for grid in self.grids]
        if len(labels) != len(set(labels)):
            raise ValueError(f"duplicate grid labels in {self.name!r}")

    # -- dict round-trip ------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Parse a plain dict (the JSON-compatible spec format).

        Either a single anonymous grid (top-level ``base``/``axes``) or
        a ``grids`` mapping of label -> ``{base, axes}``; the two forms
        are mutually exclusive.
        """
        data = dict(_mapping(data, "campaign spec"))
        name = data.get("name", "")
        if "grids" in data:
            if "axes" in data or "base" in data:
                raise ValueError(
                    f"campaign {name!r}: give either top-level "
                    f"base/axes or grids, not both"
                )
            bodies = _mapping(data["grids"], f"campaign {name!r} grids")
        else:
            bodies = {"": data}
        grids = tuple(
            _grid_from_dict(label, body) for label, body in bodies.items()
        )
        return cls(
            name=name,
            description=data.get("description", ""),
            grids=grids,
            replications=int(data.get("replications", 1)),
            seed=int(data.get("seed", 42)),
            metrics=tuple(data.get("metrics", cls.metrics)),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-compatible inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "replications": self.replications,
            "seed": self.seed,
            "metrics": list(self.metrics),
        }
        if len(self.grids) == 1 and self.grids[0].label == "":
            out["base"] = dict(self.grids[0].base)
            out["axes"] = {k: list(v) for k, v in self.grids[0].axes.items()}
        else:
            out["grids"] = {
                grid.label: {
                    "base": dict(grid.base),
                    "axes": {k: list(v) for k, v in grid.axes.items()},
                }
                for grid in self.grids
            }
        return out

    # -- expansion ------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of points (scenarios x replications)."""
        return sum(grid.size for grid in self.grids) * self.replications

    def points(self) -> Iterator[CampaignPoint]:
        """Expand the grids into runnable points, deterministically.

        Point ids are stable human-readable paths
        (``grid/axis=value/.../rep=N``), so the store can key resume
        state on them; seeds derive as ``spec.seed + replication`` —
        replication r of every scenario shares a seed, which pairs
        samples across scenarios for lower-variance comparisons.
        """
        for grid in self.grids:
            prefix = f"{grid.label}/" if grid.label else ""
            for scenario in grid.scenarios():
                parts = "/".join(
                    f"{name}={value}" for name, value in scenario.items()
                )
                for rep in range(self.replications):
                    overrides = {
                        name: decode_field(name, value)
                        for name, value in {**grid.base, **scenario}.items()
                    }
                    config = SimConfig(
                        **overrides, seed=self.seed + rep
                    )
                    yield CampaignPoint(
                        point_id=f"{prefix}{parts}/rep={rep}",
                        grid=grid.label,
                        scenario=dict(scenario),
                        replication=rep,
                        config=config,
                    )

    def point(self, point_id: str) -> Optional[CampaignPoint]:
        """The point with the given id, or None if the spec lacks it."""
        for candidate in self.points():
            if candidate.point_id == point_id:
                return candidate
        return None
