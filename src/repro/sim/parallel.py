"""Parallel sweep execution with a deterministic on-disk result cache.

Every figure reproduction funnels through sweeps whose points are
embarrassingly parallel: each ``run_simulation`` call is bit-for-bit
seeded-deterministic and shares no state with its neighbours, so fanning
points out across a process pool changes nothing about the rows — only
the wall clock.  :func:`run_reports` is the single chokepoint sweeps and
experiments (:func:`repro.sim.sweep.point_rows`) go through:

* ``workers=1`` (the default) runs points serially in-process, exactly
  like the historical code path — tests and small sweeps pay no pool
  overhead.
* ``workers=N`` fans points out over a ``ProcessPoolExecutor`` and
  reassembles results in submission order, so the output is
  byte-identical to the serial path.
* ``cache=`` layers an on-disk result cache (JSON, one file per config
  under ``results/.sweep_cache/`` by default) keyed by a stable hash of
  the :class:`~repro.sim.config.SimConfig` dataclass.  Entries record a
  schema version and ``repro.__version__`` and are ignored when either
  is stale, so upgrading the simulator silently invalidates old rows.
* ``progress=`` receives a :class:`PointStatus` as each point lands, so
  long sweeps can report live status.

A point that raises aborts the sweep.  Campaigns do not come through
here: a campaign worker (:class:`repro.campaign.fabric.Worker`) runs
its leased points itself and journals each failure as an attempt; it
uses this module's :func:`config_cache_key` to key its rows.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .config import SimConfig
from .simulator import run_simulation

Report = Dict[str, object]
ProgressCallback = Callable[["PointStatus"], None]

#: bump when the report schema or run semantics change in a way that
#: makes previously cached rows incomparable.
SCHEMA_VERSION = 1

#: default on-disk location, next to the exported figure CSVs.
DEFAULT_CACHE_DIR = os.path.join("results", ".sweep_cache")

# Default object reprs embed a memory address; a key built from one
# would vary run to run (and could collide across runs), so any config
# carrying such a field is treated as uncacheable instead.
_MEMORY_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+>")


@dataclass(frozen=True)
class PointStatus:
    """Progress record delivered once per completed sweep point."""

    index: int  #: position in the submitted config sequence
    total: int  #: number of points in the sweep
    elapsed: float  #: seconds the simulation took (0.0 on a cache hit)
    cached: bool  #: True when the row came from the result cache


#: exact types (no subclasses) whose repr is process-stable as it is
_SCALARS = frozenset({int, float, bool, type(None)})


def _canonical(value: object) -> Optional[str]:
    """A repr that is stable across processes, or None if none exists."""
    if type(value) in _SCALARS:
        return repr(value)
    if isinstance(value, dict):
        parts = []
        for key in sorted(value, key=repr):
            text = _canonical(value[key])
            if text is None:
                return None
            parts.append(f"{key!r}: {text}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        # One spelling for both: a campaign spec's JSON round trip
        # turns every tuple into a list.
        items = [_canonical(item) for item in value]
        if any(item is None for item in items):
            return None
        return "[" + ", ".join(items) + "]"  # type: ignore[arg-type]
    text = repr(value)
    if " at 0x" in text and _MEMORY_ADDRESS.search(text):
        return None
    return text


def _field_text(name: str, value: object) -> Optional[str]:
    """One field's part of the key, ``"name=canonical"``; None when the
    value has no process-stable repr."""
    text = _canonical(value)
    return None if text is None else f"{name}={text}"


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[Tuple[str, object, Optional[str]], ...]:
    """``(name, default, "name=text")`` for every field of a dataclass,
    in name order.  ``default`` is a fresh sentinel (no value is it)
    unless the field's default is an immutable scalar, whose text is
    worked out here once."""
    entries = []
    for field in sorted(dataclasses.fields(cls), key=lambda f: f.name):
        default, preset = field.default, None
        if type(default) in _SCALARS or type(default) is str:
            preset = _field_text(field.name, default)
        entries.append((field.name, default if preset else object(), preset))
    return tuple(entries)


def _field_texts(config: object) -> List[Optional[str]]:
    """:func:`_field_text` for every field of a dataclass instance, in
    name order.  A value that *is* its field's immutable default reuses
    the text the plan worked out once."""
    texts: List[Optional[str]] = []
    for name, default, preset in _plan(type(config)):
        value = getattr(config, name)
        texts.append(preset if value is default
                     else _field_text(name, value))
    return texts


def _digest(texts: List[Optional[str]]) -> Optional[str]:
    """The key of a config whose field texts are ``texts``; None when a
    field has no text."""
    if None in texts:
        return None
    blob = ";".join(texts)  # type: ignore[arg-type]
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_cache_key(config: SimConfig) -> Optional[str]:
    """Stable hash of a config, or None when the config is uncacheable.

    The key folds in every dataclass field (sorted by name), so any two
    configs that could produce different rows hash differently.  Fields
    whose values have no process-stable repr (default object reprs with
    memory addresses — e.g. a hand-written ``LengthDistribution``
    without ``__repr__``) make the whole config uncacheable rather than
    risking a wrong hit.  A list and a tuple of the same items hash
    alike.  The byte format is a contract (docs/SIMULATOR.md): stores
    and sweep caches key on it.
    """
    return _digest(_field_texts(config))


def unstable_fields(config: SimConfig) -> List[str]:
    """The fields that make :func:`config_cache_key` return None."""
    unstable = {
        name for (name, _, _), text
        in zip(_plan(type(config)), _field_texts(config)) if text is None
    }
    return [field.name for field in dataclasses.fields(config)
            if field.name in unstable]


class SweepCache:
    """One-file-per-config JSON result cache.

    Entries carry ``schema`` (:data:`SCHEMA_VERSION`) and ``version``
    (``repro.__version__``); :meth:`get` ignores entries where either
    does not match the running library, so stale rows are re-simulated
    rather than trusted.  Hits and misses are counted for reporting.
    """

    def __init__(self, path: str = DEFAULT_CACHE_DIR) -> None:
        self.path = str(path)
        self.hits = 0
        self.misses = 0

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key + ".json")

    @staticmethod
    def _library_version() -> str:
        from .. import __version__

        return __version__

    def get(self, key: Optional[str]) -> Optional[Report]:
        if key is None:
            self.misses += 1
            return None
        try:
            with open(self._file(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != SCHEMA_VERSION
            or entry.get("version") != self._library_version()
            or not isinstance(entry.get("report"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry["report"]

    def put(self, key: Optional[str], report: Report) -> bool:
        if key is None:
            return False
        os.makedirs(self.path, exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "version": self._library_version(),
            "report": report,
        }
        try:
            blob = json.dumps(entry)
        except (TypeError, ValueError):
            return False  # non-JSON report value: skip, don't fail the sweep
        target = self._file(key)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp, target)
        return True


CacheSpec = Union[None, bool, SweepCache]


def resolve_cache(cache: CacheSpec) -> Optional[SweepCache]:
    """Normalise the ``cache=`` argument the sweep helpers accept.

    ``None``/``False`` disable caching, ``True`` uses the default
    directory, and a :class:`SweepCache` passes through (letting callers
    share hit/miss counters).
    """
    if cache is True:
        return SweepCache()
    return cache or None


def _run_point(config: SimConfig) -> Tuple[Report, float]:
    """Top-level (spawn-safe, picklable) pool worker: run one point."""
    start = time.perf_counter()
    report = run_simulation(config).report
    return report, time.perf_counter() - start


def run_reports(
    configs: Iterable[SimConfig],
    workers: Optional[int] = 1,
    cache: CacheSpec = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Report]:
    """Run one simulation per config; reports in submission order.

    ``workers=1`` runs in-process (the exact historical serial path);
    ``workers=N`` uses a process pool of N; ``workers=None`` uses one
    worker per CPU.  Rows are reassembled in submission order, so the
    result is independent of worker count.  A point whose simulation
    raises re-raises here.
    """
    config_list = list(configs)
    total = len(config_list)
    store = resolve_cache(cache)
    reports: List[Optional[Report]] = [None] * total

    def landed(index: int, report: Report, elapsed: float,
               cached: bool) -> None:
        reports[index] = report
        if store is not None and not cached:
            store.put(keys[index], report)
        if progress is not None:
            progress(PointStatus(index, total, elapsed, cached))

    pending: List[int] = []
    keys: List[Optional[str]] = [None] * total
    for index, config in enumerate(config_list):
        if store is not None:
            keys[index] = config_cache_key(config)
            hit = store.get(keys[index])
            if hit is not None:
                landed(index, hit, 0.0, True)
                continue
        pending.append(index)

    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(pending) <= 1:
        for index in pending:
            landed(index, *_run_point(config_list[index]), False)
    else:
        # Imported here: a serial run never loads multiprocessing.
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        pool_size = min(workers, len(pending))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            waiting = {
                pool.submit(_run_point, config_list[index]): index
                for index in pending
            }
            while waiting:
                done, _ = wait(set(waiting), return_when=FIRST_COMPLETED)
                for future in done:
                    landed(waiting.pop(future), *future.result(), False)
    return reports  # type: ignore[return-value]
