"""Tests for the benchmark's own helpers (``perfbench/benchlib.py``)."""

import pytest

import benchlib
from benchlib import (Span, attribute_self_time, busy_seconds, run_open_loop,
                      tail_percentile)


def test_tail_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        tail_percentile([1.0, 2.0, 3.0, 4.0], 99)
    with pytest.raises(ValueError):
        tail_percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        tail_percentile(list(range(1000)), 50)


def test_tail_percentile_is_nearest_rank():
    samples = [float(value) for value in range(200, 0, -1)]
    assert tail_percentile(samples, 95) == 190.0
    assert tail_percentile(samples, 90) == 180.0


def test_busy_seconds_counts_overlaps_once():
    assert busy_seconds([]) == 0.0
    # Overlapping, nested, touching and disjoint intervals, unsorted.
    intervals = [(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (1.5, 1.8), (3.0, 4.0)]
    assert busy_seconds(intervals) == pytest.approx(5.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_counts_latency_from_the_due_time():
    clock = FakeClock()

    def send(request):
        clock.now += 0.25
        if request == "bad":
            raise OSError("refused")
        return request

    outcomes = run_open_loop(["a", "b", "bad", "d"], send, rate=10.0,
                             senders=1, clock=clock, sleep=clock.sleep,
                             lead=0.0)
    # One sender busy 0.25 s per request at 10 requests/s: every request
    # after the first goes out late, and its wait counts as latency.
    assert [o.due for o in outcomes] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert [o.late for o in outcomes] == pytest.approx([0.0, 0.15, 0.3, 0.45])
    assert [o.latency for o in outcomes] == pytest.approx(
        [0.25, 0.4, 0.55, 0.7])
    assert [o.ok for o in outcomes] == [True, True, False, True]
    assert isinstance(outcomes[2].value, OSError)


def test_open_loop_waits_for_due_times_when_idle():
    clock = FakeClock()
    outcomes = run_open_loop([1, 2, 3], lambda r: r, rate=2.0, senders=1,
                             clock=clock, sleep=clock.sleep, lead=0.0)
    assert [o.sent for o in outcomes] == pytest.approx([0.0, 0.5, 1.0])
    assert all(o.latency == 0 for o in outcomes)


def _root(end=10.0):
    return Span(0, "process", 0.0, end, parent=None)


def test_self_time_of_nested_spans():
    spans = [_root(), Span(1, "model.a", 1.0, 5.0),
             Span(2, "tiling.b", 2.0, 3.0, parent=1)]
    assert attribute_self_time(spans) == pytest.approx({0: 6.0, 1: 3.0, 2: 1.0})


def test_self_time_splits_overlapping_children():
    # Two threads' spans overlap on [3, 5]; each gets half of it.
    spans = [_root(), Span(1, "model.a", 1.0, 5.0, tid=1),
             Span(2, "server.b", 3.0, 7.0, tid=2)]
    self_time = attribute_self_time(spans)
    assert self_time == pytest.approx({0: 4.0, 1: 3.0, 2: 3.0})
    assert sum(self_time.values()) == pytest.approx(10.0)


def test_self_time_excludes_waiting():
    # A handler waits on [2, 8] while the service works on [3, 6]: the wait
    # is nobody's self time; idle instants go to the root.
    spans = [_root(), Span(1, "server.http.handler", 1.0, 9.0, tid=1),
             Span(2, "server.http.wait", 2.0, 8.0, parent=1, tid=1,
                  wait=True),
             Span(3, "server.service.step", 3.0, 6.0, tid=2)]
    self_time = attribute_self_time(spans)
    assert self_time == pytest.approx({0: 5.0, 1: 2.0, 2: 0.0, 3: 3.0})


def test_tracer_records_parents_and_chrome_events():
    tracer = benchlib.Tracer(start=0.0)

    def inner():
        return 1

    outer = tracer.wrap("experiments.outer", lambda: traced_inner())
    traced_inner = tracer.wrap("model.inner", inner)
    assert outer() == 1
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["model.inner"].parent == by_name["experiments.outer"].id
    assert by_name["experiments.outer"].parent == benchlib.ROOT_ID
    tracer.finish(by_name["experiments.outer"].end)
    events = benchlib.spans_to_chrome(tracer.all_spans())["traceEvents"]
    assert {event["cat"] for event in events} == {"process", "experiments",
                                                  "model"}
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
