"""Helpers shared by ``run.py`` and the child processes it starts.

Stdlib only, so a child can import it without pulling in the program.

* :func:`tail_percentile` — nearest-rank percentiles that refuse to report a
  tail backed by fewer than :data:`MIN_BEYOND` samples.
* :func:`run_open_loop` — a fixed-rate open-loop request generator that
  times every request from the moment it was *due*, not from when it was
  sent, so a stall is charged to every request queued behind it.
* :func:`busy_seconds` — the length of the union of a set of intervals.
* :class:`Tracer` — in-memory spans (name, start, end, parent, request id)
  recorded around wrapped calls, written out as Chrome trace events.
* :func:`attribute_self_time` — splits a trace's wall time over its spans so
  the per-span self times and the root's remainder add up to the wall time.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: A percentile is only reported when at least this many samples lie
#: strictly beyond its rank.
MIN_BEYOND = 10


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (``50 < q < 100``).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank: a "p99" of four samples is their maximum,
    not a tail estimate.
    """
    if not 50 < q < 100:
        raise ValueError(f"tail percentile must lie in (50, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"need at least {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def busy_seconds(intervals: Sequence[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals: the time at least
    one of them was open, with overlaps counted once."""
    total, covered = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > covered:
            total += end - max(start, covered)
            covered = end
    return total


# --------------------------------------------------------------------- #
# Open-loop load generation
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One request of an open-loop run; times are ``clock()`` readings."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    value: object = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the answer."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


def run_open_loop(requests: Sequence, send: Callable[[object], object], *,
                  rate: float, senders: int = 2,
                  clock: Callable[[], float] = time.monotonic,
                  sleep: Callable[[float], None] = time.sleep,
                  lead: float = 0.05) -> List[Outcome]:
    """Send ``requests[i]`` at ``start + i / rate`` over ``senders``
    connections (the calling thread plus ``senders - 1`` threads).

    A request whose due time passes while every sender is busy goes out as
    soon as one frees up; its latency still counts from the due time.  An
    exception from ``send`` marks the request failed (its value is the
    exception) and the run continues.
    """
    if rate <= 0 or senders < 1:
        raise ValueError("rate must be positive and senders at least 1")
    start = clock() + lead
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                value, ok = send(requests[index]), True
            except Exception as error:  # noqa: BLE001 - a failed request
                value, ok = error, False
            outcomes[index] = Outcome(index, due, sent, clock(), ok, value)

    threads = [threading.Thread(target=sender) for _ in range(senders - 1)]
    for thread in threads:
        thread.start()
    try:
        sender()
    finally:
        for thread in threads:
            thread.join()
    return outcomes


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
ROOT_ID = 0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = ROOT_ID
    tid: int = 0
    request_id: Optional[int] = None
    wait: bool = False
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans in memory; parents come from a per-thread stack.

    A span opened on a thread with no open span is a child of the root span
    (the whole process, id 0), whose bounds the owner sets with
    :meth:`finish`.
    """

    def __init__(self, start: float):
        self.root = Span(ROOT_ID, "process", start, parent=None,
                         tid=threading.get_ident())
        self.spans: List[Span] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[int]:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: Optional[int]) -> None:
        self._local.request_id = value

    def open(self, name: str, *, wait: bool = False,
             start: Optional[float] = None) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.monotonic() if start is None else start,
                    parent=stack[-1].id if stack else ROOT_ID,
                    tid=threading.get_ident(), request_id=self.request_id,
                    wait=wait)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, function: Callable, *,
             record: Optional[Callable] = None) -> Callable:
        """``function`` with every call recorded as a span named ``name``.

        ``record(span, args, result)`` may add counts to ``span.args``.
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span, args, result)
            return result
        return traced

    def finish(self, end: float) -> None:
        self.root.end = end

    def all_spans(self) -> List[Span]:
        return [self.root] + list(self.spans)


def spans_to_chrome(spans: Sequence[Span]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    origin = min(span.start for span in spans)
    events = []
    for span in spans:
        args = {"id": span.id, "parent": span.parent,
                "request_id": span.request_id, **span.args}
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X", "pid": 1,
            "tid": span.tid, "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3), "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_json(payload: list) -> List[Span]:
    return [Span(**entry) for entry in payload]


def spans_to_json(spans: Sequence[Span]) -> list:
    return [dict(vars(span)) for span in spans]


def attribute_self_time(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, by id, summing to the root's duration.

    A span's self time is the part of its interval that no child of it
    covers.  Where spans on different threads overlap, each instant is split
    evenly between the *busy leaves* active then: spans with no active child
    that are not waits.  A wait span (a thread blocked on another layer)
    takes no time itself but keeps its parent from being a leaf; an instant
    with waits but no busy leaf goes to the root.  The first span must be
    the root and cover all others.
    """
    root = spans[0]
    edges = []
    for span in spans:
        start = max(span.start, root.start)
        end = min(span.end, root.end)
        if end > start or span is root:
            edges.append((start, 1, span))
            edges.append((end, 0, span))
    # Ends sort before starts at equal times, so touching spans never
    # overlap.
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    self_time = {span.id: 0.0 for span in spans}
    active: Dict[int, Span] = {}
    children: Dict[int, int] = {}
    previous = None
    for when, is_start, span in edges:
        if previous is not None and when > previous and active:
            leaves = [s for s in active.values()
                      if not s.wait and not children.get(s.id)]
            share = (when - previous) / (len(leaves) or 1)
            for leaf in leaves or [root]:
                self_time[leaf.id] += share
        previous = when
        if is_start:
            active[span.id] = span
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0) + 1
        else:
            active.pop(span.id, None)
            if span.parent is not None:
                children[span.parent] -= 1
    return self_time


def write_chrome_trace(path, spans: Sequence[Span]) -> None:
    with open(path, "w") as handle:
        json.dump(spans_to_chrome(spans), handle)
