"""Event sinks: in-memory rings, unbounded lists, and JSONL files.

Sinks implement a single method, ``on_event(event)``; anything with
that method can subscribe to the :class:`~repro.obs.events.EventBus`.
The three provided here cover the common shapes:

* :class:`RingBufferSink` -- bounded memory, keeps the *last* N events;
  this is what deadlock forensics reads for "what happened just before
  the network wedged".
* :class:`ListSink` -- unbounded, keeps everything; feeds the Perfetto
  exporter, which needs span open/close pairs from the whole run.
* :class:`JsonlSink` -- streams one JSON object per event to a file
  under ``results/traces/`` (or wherever pointed); survives crashes up
  to the last flushed line.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .events import Event, event_to_dict

#: default home for trace artifacts, next to the exported figure CSVs.
DEFAULT_TRACE_DIR = os.path.join("results", "traces")


class EventSink:
    """Base sink: subclasses override :meth:`on_event`."""

    def on_event(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; safe to call more than once."""


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self.seen = 0  #: total events observed (including evicted ones)

    def on_event(self, event: Event) -> None:
        self._ring.append(event)
        self.seen += 1

    @property
    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return list(self._ring)

    def last(self, n: int) -> List[Event]:
        """The newest ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self) -> None:
        self._ring.clear()


class ListSink(EventSink):
    """Keeps every event (unbounded; use for short traced runs)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)


class JsonlSink(EventSink):
    """Writes one JSON object per event, newline-delimited.

    Usable as a context manager; parent directories are created.  The
    companion :func:`read_jsonl` parses a trace back into dicts.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.written = 0

    def write(self, record: Dict[str, Any]) -> None:
        """Append one already-flat JSON-safe dict as a line."""
        self._handle.write(json.dumps(record))
        self._handle.write("\n")
        self.written += 1

    def on_event(self, event: Event) -> None:
        self.write(event_to_dict(event))

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ReadResult(List[dict]):
    """The records :func:`read_jsonl` parsed, plus per-call metadata.

    A plain ``list`` subclass, so every existing caller keeps working;
    ``truncated`` carries how many crash-truncated trailing lines this
    particular call dropped (0 or 1); being per call, concurrent
    readers cannot race on it.
    """

    truncated: int = 0


def read_jsonl(path: str) -> ReadResult:
    """Parse a JSONL trace file back into event dicts.

    Raises ``ValueError`` (from ``json``) on a malformed line -- the CI
    smoke job uses this as the "artifact parses" assertion -- with one
    exception: a malformed *final* line with no trailing newline is a
    crash-truncated record (the writer died mid-line), so it is dropped
    with a warning and reported on the returned
    :class:`ReadResult`'s ``truncated`` attribute instead of failing
    the whole trace.
    """
    out = ReadResult()
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()
    for index, raw in enumerate(raw_lines):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except ValueError:
            last = index == len(raw_lines) - 1
            if last and not raw.endswith("\n"):
                out.truncated += 1
                warnings.warn(
                    f"dropping truncated final JSONL line in {path!r} "
                    f"({len(raw)} bytes; writer likely killed mid-record)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            raise
    return out


def filter_events(
    events: List[dict], name: Optional[str] = None
) -> List[dict]:
    """Event dicts of one type from a parsed JSONL trace."""
    if name is None:
        return list(events)
    return [e for e in events if e.get("event") == name]
