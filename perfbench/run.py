#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists and what every metric means):

* ``reproduce``    — cold ``python -m repro run`` of every experiment whose
  inputs are in the repository, on the full suite.
* ``design-grid``  — a cold ``y × GLB × PE-buffer × PE-count`` grid through
  ``EvaluationScheduler.prefetch``.
* ``daemon-mixed`` — ``python -m repro serve`` driven in an open loop by a
  seeded mix of hot, store-warm and never-seen sweep requests.

Every unit of work runs in a fresh interpreter, so process-wide memos start
empty.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced units, prints the per-layer metrics and writes a Chrome
trace under ``.perfbench/``.  The last stdout line is the result JSON; the
line before it records the seed, the host and the output checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "design-grid", "daemon-mixed")

#: A seed never used while tuning the benchmark, kept for checking claims.
HELD_OUT_SEED = 8191

#: Experiments whose inputs are not in the repository (table5 downloads the
#: DLMC/SuiteSparse corpora at full parameters).
NEEDS_DOWNLOAD = {"table5"}

#: Paper geometric means (Tailors, MICRO 2023, Figs. 7 and 8).
PAPER = {
    "fig7_ob_over_n": ("fig7", "geomean_overbooking", 52.7),
    "fig7_ob_over_p": ("fig7", "geomean_overbooking_vs_prescient", 2.3),
    "fig8_ob_over_n": ("fig8", "geomean_overbooking", 22.5),
    "fig8_ob_over_p": ("fig8", "geomean_overbooking_vs_prescient", 2.5),
}

#: Latency limit per workload for ``slo_met_share``: one evaluated cell
#: (reproduce, design-grid) from process launch, one request (daemon-mixed)
#: from its due time.  On the batch workloads cells arrive in a few large
#: clumps, so each limit is about 2.5 times the median last-cell time on a
#: 2-core host that other tenants slowed 2-2.5 times, and the metric flags
#: only gross slowdowns.  The daemon's is about twice its p95 on that host.
#: README.md lists the measured figures.
LATENCY_LIMIT_MS = {"reproduce": 10000.0, "design-grid": 4000.0,
                    "daemon-mixed": 250.0}

#: The design grid: the batch evaluator's shape, where thousands of cells
#: share a few tilings (PE count changes no tiling).
GRID = {
    "workloads": 5,
    "y": [0.02, 0.05, 0.08, 0.10, 0.14, 0.18, 0.22, 0.30],
    "glb_scales": [0.5, 1.0, 2.0],
    "pe_scales": [0.5, 1.0, 2.0],
    "pe_counts": [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
                  384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144],
}
ORACLE_SAMPLE = 8

#: The daemon mix (README.md, "daemon-mixed traffic", has the derivation).
#: Half the requests are hot, as in the mixed phase of
#: scripts/bench_server.py; the other half is split evenly between store
#: reads and store writes.  The rate is half the daemon's closed-loop
#: capacity for never-seen requests on 2 connections (median 24.7
#: requests/s, measured with perfbench/capacity.py), rounded down, so even
#: an all-fresh stream would not saturate it.  Each daemon first answers
#: every hot grid once, untimed, so hot repeats are memo hits.
RATE = 12.0
MIX = (("hot", 0.5), ("store", 0.25), ("fresh", 0.25))
HOT_GRIDS = ({"y": [0.05, 0.10, 0.22]},
             {"y": [0.10], "glb_scales": [0.5, 1.0, 2.0]})
#: Fresh daemons per run, so set-up is measured 6 times; together they send
#: at least 240 timed requests, so 12 lie beyond p95.
SESSIONS = 6
MIN_REQUESTS = 240
#: Never-seen grids each daemon answers, untimed, after the hot grids: a
#: fresh daemon's first two never-seen requests take about 1.5 times as
#: long as later ones, and with 6 daemons a run those first requests made
#: up most of the samples beyond p95.  Their ``y`` values lie above the
#: timed requests' range (0.011-0.300) and differ between daemons, since
#: the daemons share one store.
WARMUP_FRESH = 3

CHILD_TIMEOUT = 150.0
#: The whole run, children included, ends within this many seconds.
RUN_LIMIT = 170

SPAN_SECONDS = ("tensor.suite.matrix", "tensor.einsum.op_counts",
                "core.tiler.tile", "core.swiftiles.estimate",
                "tiling.occupancy_reductions", "model.engine.evaluate",
                "model.batch.prime", "model.batch.reports",
                "experiments.runner.memo_store", "experiments.search.search",
                "experiments.store.load", "experiments.store.store",
                "server.service.step")
SPAN_CALLS = ("tensor.suite.matrix", "tensor.einsum.op_counts",
              "core.tiler.tile", "core.swiftiles.estimate",
              "tiling.occupancy_reductions", "model.engine.evaluate",
              "experiments.store.store")
LAYERS = ("cli", "tensor", "core", "tiling", "model", "experiments", "server")


# --------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------- #
class Bench:
    """Per-run state: the checkout, a private temporary tree, the seed."""

    def __init__(self, root: Path, tmp: Path, args):
        self.root = root
        self.tmp = tmp
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.workload = args.workload
        self._count = 0
        self.live = set()
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(root / "src"),
                   REPRO_CORPUS_CACHE=str(tmp / "corpus"),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.env = env

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.tmp / f"{stem}-{self._count}"

    def start(self, mode: str, args, *, traced: bool = False,
              stderr=subprocess.DEVNULL) -> "Child":
        result = self.path("result")
        argv = [sys.executable, str(HERE / "child.py")]
        launch = time.monotonic()
        argv += [repr(launch), str(result)]
        argv += (["--trace"] if traced else []) + [mode] + [str(a) for a in args]
        process = subprocess.Popen(argv, env=self.env, cwd=self.tmp,
                                   stdin=subprocess.DEVNULL,
                                   stdout=subprocess.DEVNULL, stderr=stderr)
        self.live.add(process)
        return Child(process, launch, result, self.live)

    def stop_all(self) -> None:
        """Kill and reap every child still running."""
        for process in list(self.live):
            process.kill()
            process.wait()
        self.live.clear()


class Child:
    def __init__(self, process, launch: float, result: Path, live: set):
        self.process = process
        self.live = live
        self.launch = launch
        self.result_path = result

    def wait(self, timeout: float = CHILD_TIMEOUT) -> dict:
        """Reap the child; its result plus ``wall``, ``rc``, ``peak_rss_mb``."""
        watchdog = threading.Timer(timeout, self.process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.process.pid, 0)
            self.process.returncode = os.waitstatus_to_exitcode(status)
            peak_kb = usage.ru_maxrss
        except ChildProcessError:
            # Popen.kill() polls, which may reap a child that just died.
            self.process.wait()
            peak_kb = 0
        finally:
            watchdog.cancel()
        end = time.monotonic()
        self.live.discard(self.process)
        try:
            result = json.loads(self.result_path.read_text())
        except (OSError, ValueError):
            result = {"cells": []}
        # A grid child reports its peak before the oracle check it runs
        # after the grid.
        result.update(launch=self.launch, wall=end - self.launch,
                      exit=self.process.returncode,
                      peak_rss_mb=result.get("peak_rss_kb", peak_kb) / 1024.0)
        return result


def timed_units(bench: Bench, run_unit, minimum: int):
    """Run units until ``--seconds`` have passed (at least ``minimum``);
    under ``--trace 1`` every other unit is traced."""
    deadline = time.monotonic() + bench.seconds
    units = []
    while len(units) < minimum or time.monotonic() < deadline:
        traced = bench.trace and len(units) % 2 == 0
        units.append(run_unit(traced))
    return [u for u in units if not u["traced"]], [u for u in units if u["traced"]]


# --------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------- #
def paper_figures() -> dict:
    """Fig. 7/8 results from the per-point engine, in this process."""
    from repro.experiments import registry
    from repro.experiments.runner import ExperimentContext

    context = ExperimentContext.full()
    figures = {}
    for name in ("fig7", "fig8"):
        experiment = registry.get(name)
        payload = experiment.to_json(experiment.run(context))
        figures[name] = json.loads(json.dumps(payload))
    return figures


def accuracy(figures: dict) -> dict:
    return {f"{key}_log_err": abs(math.log(figures[fig][field] / paper))
            for key, (fig, field, paper) in PAPER.items()}


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def latency_metrics(latencies_ms, attempted: int, met: int) -> dict:
    return {
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p95_ms": benchlib.tail_percentile(latencies_ms, 95),
        "slo_met_share": met / attempted,
    }


def cell_latencies(units, limit_ms: float):
    """Per-cell latency from launch; cells of failed units miss the limit."""
    latencies, met, attempted = [], 0, 0
    for unit in units:
        cells = [(t - unit["launch"]) * 1000.0 for t in unit["cells"]]
        latencies += cells
        attempted += max(len(cells), unit.get("expected_cells", 0))
        if unit["ok"]:
            met += sum(1 for ms in cells if ms <= limit_ms)
    return latencies, attempted, met


def last_cell_ms(units) -> float:
    """Median over units of the last cell's time from launch: what the
    ``slo_met_share`` limit is set against."""
    return statistics.median([(max(u["cells"]) - u["launch"]) * 1000.0
                              for u in units if u["cells"]])


def batch_metrics(bench: Bench, units, cells_per_s) -> dict:
    latencies, attempted, met = cell_latencies(
        units, LATENCY_LIMIT_MS[bench.workload])
    metrics = {
        "setup_s": statistics.median([u["ready"] - u["launch"] for u in units]),
        "wall_s": statistics.median([u["wall"] for u in units]),
        "cells_per_s": statistics.median([cells_per_s(u) for u in units]),
        "peak_rss_mb": statistics.median([u["peak_rss_mb"] for u in units]),
    }
    metrics.update(latency_metrics(latencies, attempted, met))
    return metrics


def layer_metrics(spans, service_stats=None) -> dict:
    """Per-layer metrics of one traced process (see README.md)."""
    self_time = benchlib.attribute_self_time(spans)
    root = spans[0]
    seconds, calls, totals = {}, {}, {}
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans[1:]:
        seconds[span.name] = seconds.get(span.name, 0.0) + self_time[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
        per_layer[span.layer] = per_layer.get(span.layer, 0.0) + self_time[span.id]
        for key, value in span.args.items():
            if isinstance(value, (int, float)):
                totals[(span.name, key)] = totals.get((span.name, key), 0) + value
    waits = [w for span in spans if span.name == "server.service.step"
             for w in span.args.get("waits", [])]

    def total(name, key):
        return totals.get((name, key), 0)

    metrics = {"cli.import_s": seconds.get("cli.import", 0.0)}
    metrics.update({f"{name}_s": seconds.get(name, 0.0) for name in SPAN_SECONDS})
    metrics.update({f"{name}_calls": calls.get(name, 0) for name in SPAN_CALLS})
    metrics["experiments.scheduler.prefetch_self_s"] = seconds.get(
        "experiments.scheduler.prefetch", 0.0)
    metrics["server.http.handler_self_s"] = seconds.get("server.http.handler", 0.0)
    metrics["model.batch.cells"] = total("model.batch.prime", "cells")
    for key in ("computed", "warm", "store_hits"):
        metrics[f"experiments.scheduler.{key}"] = total(
            "experiments.scheduler.prefetch", key)
    metrics["experiments.search.exact_evaluations"] = total(
        "experiments.search.search", "exact_evaluations")
    keys = total("experiments.store.load", "keys")
    metrics["experiments.store.load_calls"] = keys
    metrics["experiments.store.load_hit_ratio"] = (
        total("experiments.store.load", "hits") / keys if keys else 0.0)
    passes = calls.get("server.service.step", 0)
    metrics["server.service.passes"] = passes
    metrics["server.service.tickets_per_pass"] = (
        total("server.service.step", "tickets") / passes if passes else 0.0)
    metrics["server.service.wait_ms"] = (
        statistics.median(waits) * 1000.0 if waits else 0.0)
    stats = service_stats or {}
    requests = stats.get("requests", 0)
    metrics["server.service.coalesced_share"] = (
        stats["coalesced"] / requests if requests else 0.0)
    metrics["server.service.warm_hit_rate"] = stats.get("warm_hit_rate", 0.0)
    metrics.update({f"self.{layer}_s": per_layer[layer] for layer in LAYERS})
    metrics["unattributed_s"] = self_time[root.id]
    metrics["trace.wall_s"] = root.end - root.start
    return metrics


def traced_layers(bench: Bench, traced_units, stats_of=lambda unit: None):
    """Per-layer metrics of the traced unit with the median wall time (one
    unit, so its layer self times still add up to its wall time); writes
    that unit's Chrome trace."""
    ranked = sorted(traced_units, key=lambda unit: unit["wall"])
    unit = ranked[(len(ranked) - 1) // 2]
    spans = benchlib.spans_from_json(unit["spans"])
    benchlib.write_chrome_trace(
        bench.root / ".perfbench"
        / f"trace-{bench.workload}-seed{bench.seed}.json", spans)
    metrics = layer_metrics(spans, stats_of(unit))
    metrics.update({"loadgen.late_p50_ms": 0.0, "loadgen.late_max_ms": 0.0})
    return metrics


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
def reproduce(bench: Bench) -> dict:
    from repro.experiments import registry

    experiments = [e.name for e in registry.experiments()
                   if e.name not in NEEDS_DOWNLOAD]

    def unit(traced):
        out_dir = bench.path("artifacts")
        child = bench.start("cli", ["run", *experiments, "--workers", "1",
                                    "--quiet", "--output-dir", out_dir],
                            traced=traced)
        result = child.wait()
        result["traced"] = traced
        result["figures"] = {}
        for name in ("fig7", "fig8"):
            path = out_dir / f"{name}.json"
            if path.exists():
                result["figures"][name] = json.loads(path.read_text())["result"]
        return result

    untraced, traced = timed_units(bench, unit, 2 if bench.trace else 3)
    oracle = paper_figures()
    expected = max(len(u["cells"]) for u in untraced + traced)
    for u in untraced + traced:
        u["ok"] = u["exit"] == 0 and u["figures"] == oracle
        u["expected_cells"] = expected
    metrics = batch_metrics(
        bench, untraced,
        lambda u: len(u["cells"]) / (u["cells"][-1] - u["ready"]))
    metrics.update(accuracy(untraced[0]["figures"] if untraced[0]["ok"]
                            else oracle))
    outcome = {"metrics": metrics, "units": untraced + traced,
               "last_cell_ms": last_cell_ms(untraced),
               "checks": {"exit_0_and_fig7_fig8_equal_per_point": all(
                   u["ok"] for u in untraced + traced)}}
    if traced:
        layers = traced_layers(bench, traced)
        layers["trace.overhead_share"] = (
            statistics.median([u["wall"] for u in traced]) / metrics["wall_s"] - 1)
        outcome["layers"] = layers
    return outcome


def design_grid(bench: Bench) -> dict:
    cells = (GRID["workloads"] * len(GRID["y"]) * len(GRID["glb_scales"])
             * len(GRID["pe_scales"]) * len(GRID["pe_counts"]))
    spec = dict(GRID, sample=sorted(random.Random(bench.seed).sample(
        range(cells), ORACLE_SAMPLE)))
    spec_path = bench.path("grid-spec")
    spec_path.write_text(json.dumps(spec))

    def unit(traced):
        result = bench.start("grid", [spec_path], traced=traced).wait()
        result["traced"] = traced
        result["ok"] = (result["exit"] == 0
                        and result.get("computed") == cells
                        and result.get("oracle_failed") == [])
        return result

    def rate(unit):
        return unit["computed"] / (unit["done"] - unit["ready"])

    untraced, traced = timed_units(bench, unit, 2 if bench.trace else 3)
    metrics = batch_metrics(bench, untraced, rate)
    metrics.update(accuracy(paper_figures()))
    outcome = {"metrics": metrics, "units": untraced + traced,
               "last_cell_ms": last_cell_ms(untraced),
               "checks": {"cells_cold_and_oracle_sample_to_1e-9": all(
                   u["ok"] for u in untraced + traced),
                          "oracle_sample": spec["sample"]}}
    if traced:
        layers = traced_layers(bench, traced)
        layers["trace.overhead_share"] = (
            metrics["cells_per_s"] / statistics.median([rate(u) for u in traced])
            - 1)
        outcome["layers"] = layers
    return outcome


def _daemon_plan(bench: Bench):
    """The seeded request mix: per-session lists of (kind, grid)."""
    rng = random.Random(bench.seed)
    total = max(MIN_REQUESTS, round(RATE * bench.seconds))
    per_session = math.ceil(total / SESSIONS)
    counts = {kind: round(share * per_session) for kind, share in MIX}
    counts["hot"] = per_session - counts["store"] - counts["fresh"]
    hot_y = {y for grid in HOT_GRIDS for y in grid["y"]}
    pool = [y for y in (round(0.011 + 0.001 * k, 3) for k in range(290))
            if y not in hot_y]
    drawn = iter(rng.sample(pool, SESSIONS * (counts["store"] + counts["fresh"])))
    sessions = []
    for _ in range(SESSIONS):
        mix = [("hot", rng.choice(HOT_GRIDS)) for _ in range(counts["hot"])]
        for kind in ("store", "fresh"):
            mix += [(kind, {"y": [next(drawn)]}) for _ in range(counts[kind])]
        rng.shuffle(mix)
        sessions.append(mix)
    return sessions


def _grid_key(grid: dict) -> str:
    return json.dumps(grid, sort_keys=True)


def _cli_sweep_args(grid: dict, out_dir: Path) -> list:
    args = ["sweep", "--suite", "quick", "--workers", "1",
            "--y", ",".join(repr(y) for y in grid["y"]),
            "--output-dir", str(out_dir)]
    if "glb_scales" in grid:
        args += ["--glb-scales", ",".join(repr(s) for s in grid["glb_scales"])]
    return args


def _start_daemon(bench: Bench, store: Path, traced: bool):
    from repro.server.client import ServerClient

    log = bench.path("daemon-log")
    with open(log, "wb") as stderr:
        child = bench.start("cli", ["serve", "--port", "0", "--workers", "1",
                                    "--store", store],
                            traced=traced, stderr=stderr)
    deadline = time.monotonic() + 60
    match = None
    while match is None:
        if time.monotonic() > deadline or child.process.poll() is not None:
            child.process.kill()
            child.wait()
            raise RuntimeError(f"daemon did not start:\n{log.read_text()}")
        time.sleep(0.002)
        match = re.search(r"serving on http://([\d.]+):(\d+)", log.read_text())
    client = ServerClient(match.group(1), int(match.group(2)), timeout=20)
    client.health()
    return child, client, time.monotonic() - child.launch


def daemon_mixed(bench: Bench) -> dict:
    from repro.cli import main as cli_main
    from repro.server.client import artifact_bytes

    sessions = _daemon_plan(bench)
    store = bench.tmp / "store"
    references = {}
    for kind, grid in [("hot", g) for g in HOT_GRIDS] + [
            item for session in sessions for item in session]:
        key = _grid_key(grid)
        if key in references:
            continue
        out_dir = bench.path("reference")
        args = _cli_sweep_args(grid, out_dir)
        if kind == "store":
            args += ["--store", str(store)]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli_main(args)
        if code != 0:
            raise RuntimeError(f"the CLI failed to prepare the daemon's "
                               f"store:\n{log.getvalue()}")
        references[key] = (out_dir / "sweep.json").read_bytes()
    # Set-up left this process a large heap; a full collection of it takes
    # tens of milliseconds, which would land inside some request's latency.
    gc.collect()
    gc.freeze()

    units = []
    for index, mix in enumerate(sessions):
        traced = bench.trace and index % 2 == 0
        child, client, setup = _start_daemon(bench, store, traced)
        try:
            for grid in HOT_GRIDS:
                client.sweep(suite="quick", **grid)
            for k in range(WARMUP_FRESH):
                y = 0.301 + 0.001 * (index * WARMUP_FRESH + k)
                client.sweep(suite="quick", y=[round(y, 3)])

            outcomes = benchlib.run_open_loop(
                mix, lambda item: client.sweep(suite="quick", **item[1]),
                rate=RATE, senders=2)
            stats = client.stats()
            # Checked after the load, so the check is not timed.
            for outcome, (_, grid) in zip(outcomes, mix):
                if outcome.ok:
                    answer = outcome.value
                    outcome.value = {
                        "matches": artifact_bytes(answer.artifact)
                        == references[_grid_key(grid)],
                        "cells": len(answer.cells),
                        "sources": answer.cell_sources()}
        finally:
            try:
                client.shutdown()
            except OSError:
                child.process.kill()
            result = child.wait()
        result.update(traced=traced, setup=setup, outcomes=outcomes,
                      stats=stats, kinds=[kind for kind, _ in mix])
        units.append(result)

    untraced = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    limit = LATENCY_LIMIT_MS["daemon-mixed"] / 1000.0
    latencies, attempted, met, failed = [], 0, 0, 0
    sources = {}
    for unit in units:
        for outcome, kind in zip(unit["outcomes"], unit["kinds"]):
            good = outcome.ok and outcome.value["matches"]
            failed += not good
            if unit["traced"]:
                continue
            attempted += 1
            if outcome.ok:
                latencies.append(outcome.latency * 1000.0)
                for source, count in outcome.value["sources"].items():
                    key = f"{kind}:{source}"
                    sources[key] = sources.get(key, 0) + count
            met += good and outcome.latency <= limit

    def busy(unit):
        """Seconds the daemon had at least one request in flight."""
        return benchlib.busy_seconds([(o.sent, o.done)
                                      for o in unit["outcomes"]])

    def throughput(unit):
        answered = [o for o in unit["outcomes"] if o.ok]
        return sum(o.value["cells"] for o in answered) / busy(unit)

    late = [o.late * 1000.0 for u in untraced for o in u["outcomes"]]
    loadgen = {"loadgen.late_p50_ms": statistics.median(late),
               "loadgen.late_max_ms": max(late)}
    outcome = {
        "units": units, "failed": failed,
        "attempted": sum(len(u["outcomes"]) for u in units),
        "checks": {"artifacts_byte_identical_to_cli_sweep": failed == 0,
                   "cell_sources_by_kind": sources},
        "loadgen": loadgen,
    }
    if traced:
        layers = traced_layers(bench, traced, lambda unit: unit["stats"])
        traced_latency = [o.latency * 1000.0 for u in traced
                          for o in u["outcomes"] if o.ok]
        layers["trace.overhead_share"] = (
            statistics.median(traced_latency) / statistics.median(latencies) - 1)
        layers.update(loadgen)
        outcome["layers"] = layers
        return outcome
    outcome["metrics"] = {
        "setup_s": statistics.median([u["setup"] for u in untraced]),
        "wall_s": statistics.median([busy(u) for u in untraced]),
        "cells_per_s": statistics.median([throughput(u) for u in untraced]),
        "peak_rss_mb": statistics.median([u["peak_rss_mb"] for u in untraced]),
        **latency_metrics(latencies, attempted, met),
        **accuracy(paper_figures()),
    }
    return outcome


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def host_record(bench: Bench) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"workload": bench.workload, "seed": bench.seed,
            "held_out_seed": HELD_OUT_SEED, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if os.environ.get("REPRO_FAULTS"):
        print("error: REPRO_FAULTS is set; the benchmark runs only without "
              "fault injection", file=sys.stderr)
        return 2
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a checkout (src/repro/cli.py not "
              "found)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    bench = Bench(root, tmp, args)

    def expire(signum, frame):
        for process in list(bench.live):
            process.kill()
        raise TimeoutError(f"the run took longer than {RUN_LIMIT} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_LIMIT)
    try:
        os.environ.update(REPRO_CORPUS_CACHE=bench.env["REPRO_CORPUS_CACHE"])
        sys.path.insert(0, str(root / "src"))
        # Compile bytecode and warm the page cache; users do not pay
        # either on every run.
        bench.start("cli", ["list"]).wait()
        outcome = {"reproduce": reproduce, "design-grid": design_grid,
                   "daemon-mixed": daemon_mixed}[args.workload](bench)
    finally:
        signal.alarm(0)
        bench.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)

    units = outcome["units"]
    attempted = outcome.get("attempted") or len(units)
    failed = outcome.get("failed")
    if failed is None:
        failed = sum(not u["ok"] for u in units)
    record = host_record(bench)
    record.update(units=len(units), traced_units=sum(u["traced"] for u in units),
                  latency_limit_ms=LATENCY_LIMIT_MS[args.workload],
                  last_cell_ms=outcome.get("last_cell_ms"),
                  checks=outcome["checks"], loadgen=outcome.get("loadgen"),
                  failed_share=failed / attempted)
    print(json.dumps(record))
    section = "per_layer" if args.trace else "end_to_end"
    values = outcome["layers" if args.trace else "metrics"]
    named = {metric["name"]: {"value": values[metric["name"]],
                              "unit": metric["unit"]}
             for metric in declared[section]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
