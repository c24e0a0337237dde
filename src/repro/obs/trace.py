"""Span-based distributed tracing for multi-process campaign runs.

The engine's Chrome-trace exporter (:mod:`repro.obs.perfetto`) tells
the causal story *inside* one simulation.  Since the distributed
campaign fabric turned campaigns into multi-process runs, the story
*around* the simulations — which worker leased which point, when a
dead worker's lease was reclaimed, how long the journal write took —
spans process boundaries, and no single process observes all of it.

This module provides the classic remedy: a frozen-dataclass
:class:`Span` carrying ``trace_id``/``span_id``/``parent_id``, a
:class:`Tracer` that opens and closes spans against a wall-clock
timebase.  The fabric journals spans into the campaign store's
``spans`` table, which is also how context crosses processes: a
worker joins the trace of the campaign's newest open root span there.
``cr-sim campaign timeline`` merges every process's spans into one
Perfetto file.

Span taxonomy (see docs/OBSERVABILITY.md):

========  =============================================================
kind      meaning
========  =============================================================
root      one per campaign run; every other span joins its trace
submit    the coordinator registering + expanding the grid
worker    one fabric worker process's whole session
lease     one granted lease on one point (open while held)
run       one simulation attempt for one point (child of its lease)
journal   the store write that landed the point's result
renew     one heartbeat renewal of a worker's held leases
========  =============================================================

Statuses: ``open`` (still running), ``ok``, ``error``, and ``aborted``
(the owner died; the lease reclaim closed the orphan).
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Union

#: the statuses a finished span may carry (``open`` means unfinished).
SPAN_STATUSES = ("open", "ok", "error", "aborted")


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: which trace, which parent."""

    trace_id: str
    span_id: str


@dataclass(frozen=True)
class Span:
    """One timed operation in a distributed trace (immutable record).

    A span is *open* while ``end_ts`` is None (status ``open``); ending
    it produces a new frozen instance via :func:`dataclasses.replace`.
    ``attrs`` is free-form JSON-safe metadata (point ids, batch sizes,
    outcome details); ``point_id`` is hoisted out of it because the
    store indexes spans by point for the orphan-closure path.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str = "span"
    worker_id: str = ""
    point_id: Optional[str] = None
    start_ts: float = 0.0
    end_ts: Optional[float] = None
    status: str = "open"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready flat dict (the store/JSONL wire format)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "worker_id": self.worker_id,
            "point_id": self.point_id,
            "start_ts": self.start_ts,
            "end_ts": self.end_ts,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


ParentLike = Union[Span, SpanContext, None]


class Tracer:
    """Opens and closes spans against wall-clock time.

    One tracer per process.  ``root`` ties the tracer into an existing
    trace (a fabric worker passes the campaign's newest open root
    span); without one, :meth:`start_span` on the first span starts a
    fresh trace.  The caller journals the records :meth:`start_span` and
    :meth:`end_span` return.  Thread-safe: the heartbeat thread closes
    renew spans while the main loop runs points.
    """

    def __init__(self, worker_id: str = "", root: ParentLike = None) -> None:
        self.worker_id = worker_id
        self.root = _context_of(root)
        self._lock = threading.Lock()
        self._stack: List[Span] = []
        self.finished = 0

    # -- span lifecycle -------------------------------------------------

    def start_span(
        self,
        name: str,
        kind: str = "span",
        parent: ParentLike = None,
        point_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        start_ts: Optional[float] = None,
    ) -> Span:
        """Open a span; returns the open record.

        ``parent`` defaults to the innermost span this tracer currently
        has open, else the tracer's root context, else None — in which
        case the span starts a brand-new trace.
        """
        context = _context_of(parent)
        if context is None:
            with self._lock:
                if self._stack:
                    context = self._stack[-1].context()
            if context is None:
                context = self.root
        if context is None:
            trace_id, parent_id = new_trace_id(), None
        else:
            trace_id, parent_id = context.trace_id, context.span_id
        span = Span(
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            kind=kind,
            worker_id=self.worker_id,
            point_id=point_id,
            start_ts=time.time() if start_ts is None else start_ts,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self._stack.append(span)
        return span

    def end_span(
        self,
        span: Span,
        status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
        end_ts: Optional[float] = None,
    ) -> Span:
        """Close ``span``; returns the finished record."""
        if status not in SPAN_STATUSES or status == "open":
            raise ValueError(f"invalid finished-span status {status!r}")
        merged = dict(span.attrs)
        if attrs:
            merged.update(attrs)
        done = replace(
            span,
            end_ts=time.time() if end_ts is None else end_ts,
            status=status,
            attrs=merged,
        )
        with self._lock:
            self._stack = [s for s in self._stack
                           if s.span_id != span.span_id]
            self.finished += 1
        return done

    def current(self) -> Optional[Span]:
        """The innermost span still open on this tracer, if any."""
        with self._lock:
            return self._stack[-1] if self._stack else None


def _context_of(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context()
    return parent
