"""One measured unit of the program, run in a fresh interpreter.

Started by ``run.py``, never by hand::

    python perfbench/child.py LAUNCH RESULT.json [--trace] cli ARGV...
    python perfbench/child.py LAUNCH RESULT.json [--trace] grid SPEC.json

``LAUNCH`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time counts interpreter start.
``cli`` imports ``repro.cli`` and calls ``main(ARGV)`` — what ``python -m
repro ARGV`` does.  ``grid`` submits a cold design grid through
``EvaluationScheduler.prefetch`` and checks a sample of its cells against
the per-point engine.  With ``--trace`` the public calls named in
:func:`install_tracing` are recorded as spans.

RESULT.json receives ``ready`` (monotonic time the imports finished),
``cells`` (monotonic time each evaluation cell became available), the exit
code, check outcomes and, when traced, the spans.
"""

import json
import math
import resource
import sys
import time


def _record_cells(cells: list) -> None:
    """Chain a hook onto every ``prefetch`` that timestamps each cell."""
    from repro.experiments.scheduler import EvaluationScheduler

    original = EvaluationScheduler.prefetch

    def prefetch(self, requests, *, on_result=None):
        def hook(request, reports, source):
            cells.append(time.monotonic())
            if on_result is not None:
                on_result(request, reports, source)
        return original(self, requests, on_result=hook)

    EvaluationScheduler.prefetch = prefetch


def install_tracing(tracer) -> None:
    """Wrap each layer's public entry points in spans (see README.md)."""
    from repro.core.overbooking import NaiveTiler, OverbookingTiler, PrescientTiler
    from repro.core.swiftiles import Swiftiles
    from repro.experiments import runner, search
    from repro.experiments.scheduler import EvaluationScheduler
    from repro.experiments.store import ReportStore
    from repro.model.batch import BatchWorkloadEvaluator
    from repro.model.engine import AnalyticalEngine
    from repro.server import http, service
    from repro.tensor.einsum import MatmulWorkload
    from repro.tensor.kernels import SDDMMWorkload, SpMMWorkload, SpMVWorkload
    from repro.tensor.suite import WorkloadSuite
    from repro.tiling.base import Tiling

    def method(cls, name, span_name, record=None):
        setattr(cls, name, tracer.wrap(span_name, getattr(cls, name),
                                       record=record))

    def function(module, name, span_name, record=None):
        original = getattr(module, name)
        traced = tracer.wrap(span_name, original, record=record)
        # Callers that imported the name directly hold their own binding.
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original):
                setattr(loaded, name, traced)

    def schedule(span, args, stats):
        span.args.update(computed=stats.computed, warm=stats.warm,
                         store_hits=stats.store_hits)

    def load_one(span, args, reports):
        span.args.update(keys=1, hits=int(reports is not None))

    def load_many(span, args, found):
        span.args.update(keys=len(set(args[1])), hits=len(found))

    def run_pass(span, args, result):
        tickets = args[1]
        span.args.update(
            tickets=len(tickets),
            requests=[getattr(t, "bench_request_id", None) for t in tickets],
            waits=[span.start - t.bench_submitted for t in tickets
                   if hasattr(t, "bench_submitted")])

    method(WorkloadSuite, "matrix", "tensor.suite.matrix")
    for cls in (MatmulWorkload, SpMMWorkload, SpMVWorkload, SDDMMWorkload):
        method(cls, "operation_counts", "tensor.einsum.op_counts")
    for cls in (NaiveTiler, PrescientTiler, OverbookingTiler):
        method(cls, "tile", "core.tiler.tile")
    method(Swiftiles, "estimate", "core.swiftiles.estimate")
    method(Tiling, "occupancy_reductions", "tiling.occupancy_reductions")
    method(AnalyticalEngine, "evaluate", "model.engine.evaluate")
    method(BatchWorkloadEvaluator, "prime", "model.batch.prime",
           lambda span, args, _: span.args.update(cells=len(args[1])))
    method(BatchWorkloadEvaluator, "reports", "model.batch.reports")
    method(EvaluationScheduler, "prefetch", "experiments.scheduler.prefetch",
           schedule)
    function(runner, "store_memoized_reports", "experiments.runner.memo_store")
    function(search, "search_frontier", "experiments.search.search",
             lambda span, args, result: span.args.update(
                 exact_evaluations=len(result.points)))
    method(ReportStore, "load", "experiments.store.load", load_one)
    method(ReportStore, "load_many", "experiments.store.load", load_many)
    method(ReportStore, "store", "experiments.store.store")
    # The service loop runs each coalesced pass through _run_pass, the body
    # step() shares; step() itself only serves manually driven services.
    method(service.EvaluationService, "_run_pass", "server.service.step",
           run_pass)

    submit = service.EvaluationService.submit

    def traced_submit(self, requests):
        submitted = time.monotonic()
        ticket = submit(self, requests)
        ticket.bench_submitted = submitted
        ticket.bench_request_id = tracer.request_id
        return ticket

    service.EvaluationService.submit = traced_submit

    events = service.Ticket.events

    def traced_events(self):
        stream = events(self)
        while True:
            span = tracer.open("server.http.wait", wait=True)
            try:
                event = next(stream, None)
            finally:
                tracer.close(span)
            if event is None:
                return
            yield event

    service.Ticket.events = traced_events

    do_post = tracer.wrap("server.http.handler", http._Handler.do_POST)
    request_ids = iter(range(1, 1 << 62))

    def traced_do_post(self):
        tracer.request_id = next(request_ids)
        try:
            do_post(self)
        finally:
            tracer.request_id = None

    http._Handler.do_POST = traced_do_post


def _reports_close(got, want) -> bool:
    """Recursive equality of two JSON-ready values, floats to 1e-9."""
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _reports_close(got[key], want[key]) for key in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            _reports_close(a, b) for a, b in zip(got, want))
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return got == want


def run_grid(spec: dict, cells: list, out: dict) -> None:
    """The design-grid unit: a cold grid through ``prefetch``, then the
    seed-drawn oracle sample against the per-point engine."""
    from repro.accelerator.config import scaled_default_config
    from repro.experiments.registry import to_jsonable
    from repro.experiments.runner import ExperimentContext, memoized_reports
    from repro.experiments.scheduler import EvaluationScheduler
    from repro.experiments.sweep import plan_grid
    from repro.tensor.suite import default_suite

    suite = default_suite()
    # plan_grid has no PE-count axis, so the grid is one plan per count.
    plans = [plan_grid(suite, y_values=spec["y"],
                       glb_scales=spec["glb_scales"],
                       pe_scales=spec["pe_scales"],
                       base_architecture=scaled_default_config()
                       .with_overrides(num_pes=count),
                       workloads=suite.names[:spec["workloads"]])
             for count in spec["pe_counts"]]
    requests = [request for plan in plans for request in plan.requests]
    stats = EvaluationScheduler(max_workers=1).prefetch(
        requests, on_result=lambda *_: cells.append(time.monotonic()))
    out["done"] = time.monotonic()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["expected_cells"] = len(requests)
    out["computed"] = stats.computed

    failed = []
    for index in spec["sample"]:
        request = requests[index]
        context = ExperimentContext(
            suite=plans[0].suite, architecture=request.architecture,
            overbooking_target=request.overbooking_target)
        want = context.model.evaluate_workload(
            context.workload(request.workload))
        got = memoized_reports(request.memo_key)
        if got is None or not _reports_close(to_jsonable(got),
                                             to_jsonable(want)):
            failed.append(index)
    out["oracle_failed"] = failed


def main(argv) -> int:
    launch, result_path = float(argv[0]), argv[1]
    traced = argv[2] == "--trace"
    mode, rest = (argv[3], argv[4:]) if traced else (argv[2], argv[3:])
    tracer = None
    if traced:
        import benchlib

        tracer = benchlib.Tracer(launch)
    cells: list = []
    out = {"cells": cells, "rc": None}
    try:
        if mode == "grid":
            # Everything run_grid imports, so set-up time covers it.
            import repro.accelerator.config  # noqa: F401
            import repro.experiments.registry  # noqa: F401
            import repro.experiments.scheduler  # noqa: F401
            import repro.experiments.sweep  # noqa: F401
        else:
            import repro.cli
        out["ready"] = time.monotonic()
        if tracer is not None:
            import_span = tracer.open("cli.import", start=launch)
            tracer.close(import_span)
            import_span.end = out["ready"]
            install_tracing(tracer)
        if mode == "grid":
            with open(rest[0]) as handle:
                run_grid(json.load(handle), cells, out)
            out["rc"] = 0
        elif mode == "cli":
            _record_cells(cells)
            out["rc"] = repro.cli.main(rest)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            # A grid's trace ends with the grid; the oracle check after it
            # is not part of the workload.
            end = out.get("done") or time.monotonic()
            tracer.finish(end)
            out["spans"] = benchlib.spans_to_json(
                [span for span in tracer.all_spans() if span.start < end])
        with open(result_path, "w") as handle:
            json.dump(out, handle)
    return out["rc"] or 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
