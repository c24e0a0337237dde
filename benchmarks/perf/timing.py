"""Noise-robust host timing: segments, calibration, best composite pass.

The sandbox this benchmark runs in shares its cores.  Measured on the
builder's 2-core box: a fixed 1.8 ms pure-Python loop runs between 1.0x
and 1.9x its best time, the factor wandering on two timescales at once
-- millisecond bursts *and* slow periods that last minutes.  A pass of
~0.5 s therefore never repeats (best-of-8 pass wall spread 12-15% run
to run; 34% across runs that straddle a slow period), which no bound
the benchmark may set (<= 25%) survives.  Two devices bring the spread
to ~2-3%:

* **Segments.**  A pass is cut into fixed segments of a few ms (k
  engine cycles, one campaign point, one store call).  The simulator is
  deterministic, so segment *i* does identical work on every pass; the
  *best composite pass* is the sum over segments of each segment's
  minimum over the passes.  A segment only needs one quiet moment in P
  tries, where a whole pass needs ~0.5 s of them in a row.
* **Paired calibration.**  Every segment is followed by one sample of a
  fixed pure-Python kernel of about the same length, reduced the same
  way (per-slot minimum over passes, summed).  Both sides get the same
  number of chances at a quiet moment, so their ratio cancels the
  machine's speed factor, including the minutes-long slow periods no
  in-run minimum can escape.  Times are reported as
  ``raw * (CAL_REF_S / measured calibration)``: host seconds on a
  machine on which the kernel takes ``CAL_REF_S`` (the builder's box
  when quiet), so a quiet run on that box reads in real seconds.

Calibration time is excluded from every segment and from the span clock
(:meth:`Clock.now`), so spans tile the workload's own time.
"""

from __future__ import annotations

import gc
import json
import random
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: the calibration kernel's best time on the builder's box (seconds);
#: normalised times read as seconds on a machine this fast.
CAL_REF_S = 0.00190


class _Cell:
    __slots__ = ("count", "queue", "peer")

    def __init__(self) -> None:
        self.count = 0
        self.queue: deque = deque()
        self.peer: "_Cell" = self

    def step(self, now: int) -> int:
        queue = self.queue
        if queue:
            self.peer.queue.append(queue.popleft() + 1)
            self.count += 1
        else:
            queue.append(now)
        return self.count


class Clock:
    """The calibration kernel plus a clock that excludes time spent in it.

    The kernel mixes the three things the simulator's inner loops do --
    dict/int bytecode, method calls on small slotted objects moving
    items between deques, and scattered reads over a few MB of lists --
    because the machine's slow periods hit them unequally (a tight dict
    loop alone under-corrects by ~10%; the mix tracked the engine's
    slowdown to ~2%).
    """

    def __init__(self) -> None:
        self.paused = 0.0  #: wall seconds spent outside the workload
        self._paused_at: Optional[float] = None
        self._cells = [_Cell() for _ in range(4096)]
        for index, cell in enumerate(self._cells):
            cell.peer = self._cells[(index * 61 + 7) % 4096]
        self._rows = [list(range(8)) for _ in range(20000)]
        self._rng = random.Random(1)

    def pause(self) -> None:
        if self._paused_at is None:
            self._paused_at = time.perf_counter()

    def resume(self) -> None:
        if self._paused_at is not None:
            self.paused += time.perf_counter() - self._paused_at
            self._paused_at = None

    def now(self) -> float:
        """Workload time: wall minus everything spent while paused."""
        if self._paused_at is not None:
            return self._paused_at - self.paused
        return time.perf_counter() - self.paused

    def calibrate(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(6000):
            table[i & 1023] = i
            key = (i * 7) & 1023
            if key in table:
                total += table[key]
        cells = self._cells
        draw = self._rng.random
        for i in range(1500):
            total += cells[int(draw() * 4096)].step(i)
        rows = self._rows
        j = 7
        for i in range(2500):
            j = (j * 1103515245 + 12345) % 20000
            row = rows[j]
            row[i & 7] = i
            total += row[(i + 3) & 7]
        return time.perf_counter() - start


class PassTimer:
    """Per-segment (wall, cpu, calibration) samples over repeated passes."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.labels: List[str] = []
        #: samples[i][p] = (wall, cpu, cal) of segment i on pass p
        self.samples: List[List[Tuple[float, float, float]]] = []
        self.passes = 0
        #: False once a pass produced a different segment sequence
        self.consistent = True
        self._index = 0
        self._wall = self._cpu = 0.0

    def begin(self) -> None:
        """Start a pass.  Collecting first pins the collector's state, so
        its generation thresholds trip in the same segments every pass."""
        gc.collect()
        self._index = 0
        self.restart()

    def pause(self) -> None:
        """Stop the clock for harness work; ``restart()`` resumes."""
        self.clock.pause()

    def restart(self) -> None:
        """Start the next segment now."""
        self.clock.resume()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def mark(self, label: str) -> None:
        """End the running segment as ``label`` and start the next one."""
        wall_end = time.perf_counter()
        cpu_end = time.process_time()
        self.clock.pause()
        sample = (wall_end - self._wall, cpu_end - self._cpu,
                  self.clock.calibrate())
        index = self._index
        if index == len(self.labels) and self.passes == 0:
            self.labels.append(label)
            self.samples.append([])
        if index < len(self.labels) and self.labels[index] == label:
            self.samples[index].append(sample)
        else:
            self.consistent = False
        self._index = index + 1
        self.restart()

    def end(self) -> None:
        self.clock.pause()
        if self._index != len(self.labels):
            self.consistent = False
        self.passes += 1

    def best(self) -> Dict[str, Any]:
        """The best composite pass, raw and normalised (see module doc)."""
        wall = cpu = cal = 0.0
        by_label: Dict[str, float] = {}
        for label, rows in zip(self.labels, self.samples):
            best_wall = min(row[0] for row in rows)
            wall += best_wall
            cpu += min(row[1] for row in rows)
            cal += min(row[2] for row in rows)
            by_label[label] = by_label.get(label, 0.0) + best_wall
        speed = CAL_REF_S * len(self.samples) / cal if cal else 1.0
        totals = sorted(
            sum(rows[p][0] for rows in self.samples)
            for p in range(min(len(rows) for rows in self.samples))
        ) if self.samples else [0.0]
        return {
            "wall_s": wall * speed,
            "cpu_s": cpu * speed,
            "raw_wall_s": wall,
            "speed": speed,
            "passes": self.passes,
            "segments": len(self.samples),
            "by_label_s": {k: v * speed for k, v in by_label.items()},
            # whole-pass raw walls, kept as diagnostics only
            "pass_wall_min_s": totals[0],
            "pass_wall_median_s": totals[len(totals) // 2],
            "pass_wall_max_s": totals[-1],
        }


# ----------------------------------------------------------------------
# Spans (traced run only)
# ----------------------------------------------------------------------

class Spans:
    """In-memory spans on the workload clock; written out once at the end."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1, args]
        self.rows: List[List[Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, self.clock.now(), 0.0, parent, args])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[index][2] = self.clock.now()

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        child = [0.0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.rows, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Chrome/Perfetto trace JSON: one complete ("X") event per span."""
        origin = self.rows[0][1] if self.rows else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": args}
            for name, start, end, _, args in self.rows
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class NoSpans:
    """The untraced stand-in: ``span()`` costs one generator frame."""

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        yield


def run_passes(timer: PassTimer, one_pass: Any, seconds: float,
               minimum: int = 2) -> None:
    """Repeat ``one_pass(timer)`` until ``seconds`` of wall have gone by."""
    deadline = time.perf_counter() + seconds
    while timer.passes < minimum or time.perf_counter() < deadline:
        timer.begin()
        one_pass(timer)
        timer.end()
