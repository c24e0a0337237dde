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
enough samples for the significance rule in
:mod:`repro.campaign.report`.

The spec also carries the campaign's attempt budget,
``max_attempts``: a failing point is retried until it has used that
many attempts, counted across every executor and invocation, and is
then settled ``failed``.

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
from ..sim.parallel import (
    _digest,
    _field_text,
    _field_texts,
    _plan,
    config_cache_key,
)

#: SimConfig field names a grid may set (seed is derived, never set).
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}

#: field name -> its slot in a config's key texts
_KEY_SLOT = {name: slot for slot, (name, _, _) in enumerate(_plan(SimConfig))}

#: the key texts of a config that sets no field
_DEFAULT_TEXTS = _field_texts(SimConfig())

#: attempts (across every executor and invocation) before a failing
#: point is terminal, unless the spec says otherwise.
DEFAULT_MAX_ATTEMPTS = 3


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
    """One runnable point: a scenario at one replication.

    A point built by hand is given its ``config``.  A point
    :meth:`CampaignSpec.points` expands carries its id and
    ``config_hash`` and builds ``config`` on first access (then keeps
    it), so a settled point, which is only compared by hash, never
    builds one.
    """

    point_id: str  #: stable id, e.g. ``"e01/routing=cr/load=0.1/rep=0"``
    grid: str  #: label of the grid the scenario came from
    scenario: Dict[str, Any]  #: the axis values (spec-level, undecoded)
    replication: int
    config: SimConfig  #: fully-resolved simulation config

    @cached_property
    def config_hash(self) -> Optional[str]:
        """``config_cache_key(config)``, worked out once per point
        (:meth:`CampaignSpec.points` fills it in as it expands)."""
        return config_cache_key(self.config)

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: an expanded
        # point's ``config`` before its first use.
        build = self.__dict__.get("_build")
        if name != "config" or build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        overrides, seed = build
        config = self.__dict__["config"] = SimConfig(**overrides, seed=seed)
        return config


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
    #: the attempt budget: a point whose journaled failure has used
    #: this many attempts is settled ``failed`` for every executor
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.grids:
            raise ValueError(f"campaign {self.name!r} has no grids")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if (not isinstance(self.max_attempts, int)
                or isinstance(self.max_attempts, bool)
                or self.max_attempts < 1):
            raise ValueError(
                f"campaign {self.name!r}: max_attempts must be an "
                f"integer >= 1, got {self.max_attempts!r}"
            )
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
            max_attempts=data.get("max_attempts", DEFAULT_MAX_ATTEMPTS),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-compatible inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "replications": self.replications,
            "seed": self.seed,
            "metrics": list(self.metrics),
            "max_attempts": self.max_attempts,
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

    def with_base(self, **fields: Any) -> "CampaignSpec":
        """This spec with ``fields`` set in every grid's ``base``."""
        return dataclasses.replace(self, grids=tuple(
            dataclasses.replace(grid, base={**grid.base, **fields})
            for grid in self.grids
        ))

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

        Each point comes with its ``config_hash`` and builds its
        ``config`` only when that is first read.  The key texts start
        from a default config's, the grid's base fields are substituted
        once and a point substitutes its axis values and seed.  That
        is exact because a ``SimConfig`` stores the values it is given
        (it has no ``__post_init__``).
        """
        seed_slot = _KEY_SLOT["seed"]
        for grid in self.grids:
            prefix = f"{grid.label}/" if grid.label else ""
            base = {name: decode_field(name, value)
                    for name, value in grid.base.items()}
            grid_texts = list(_DEFAULT_TEXTS)
            for name, value in base.items():
                grid_texts[_KEY_SLOT[name]] = _field_text(name, value)
            for scenario in grid.scenarios():
                parts = "/".join(
                    f"{name}={value}" for name, value in scenario.items()
                )
                values = {name: decode_field(name, value)
                          for name, value in scenario.items()}
                overrides = {**base, **values}
                texts = list(grid_texts)
                for name, value in values.items():
                    texts[_KEY_SLOT[name]] = _field_text(name, value)
                for rep in range(self.replications):
                    seed = self.seed + rep
                    texts[seed_slot] = _field_text("seed", seed)
                    # Filled in directly, not through __init__: the
                    # point has no config until it is first asked for.
                    point = object.__new__(CampaignPoint)
                    point.__dict__.update(
                        point_id=f"{prefix}{parts}/rep={rep}",
                        grid=grid.label,
                        scenario=dict(scenario),
                        replication=rep,
                        config_hash=_digest(texts),
                        _build=(overrides, seed),
                    )
                    yield point
