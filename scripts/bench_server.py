#!/usr/bin/env python
"""Load generator for the evaluation daemon (``python -m repro serve``).

Drives N concurrent clients over a mixed hot/cold request stream against an
in-process :class:`repro.server.http.ReproServer` (same code path as the
daemon, no interpreter startup noise) and records, per phase:

* ``cold`` — every client concurrently requests the *same* never-evaluated
  grid.  The service coalesces tickets that queue up behind a running pass
  into the next one, and cells computed by one pass are memo-warm for the
  next, so the grid is computed once no matter how many clients ask.
* ``hot`` — every client re-requests that grid ``hot_rounds`` times: the
  repeated-request phase, served from the process memo / shared store.
  This is the phase the warm-path hit-rate criterion (> 90 %) is measured
  on.
* ``mixed`` — half the clients repeat the hot grid while the other half
  sweep a fresh ``y`` axis: the steady-state shape of a shared server.

For each phase: request p50/p99 latency, throughput (requests/s), and the
cell-source histogram (memo / store / computed) with the derived warm hit
rate.  Results land in the ``server`` section of ``BENCH_pipeline.json``
(``--output``; merged in place so the other sections survive) and the
whole-pipeline benchmark embeds the same section via
:func:`run_server_bench`.

Run with::

    PYTHONPATH=src python scripts/bench_server.py [--clients 4]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import clear_process_caches  # noqa: E402
from repro.experiments.store import ReportStore  # noqa: E402
from repro.server import ServerClient, create_server, serve  # noqa: E402

#: The benchmark grid (quick suite): 3 workloads x 3 targets = 9 cells.
HOT_GRID = dict(suite="quick", y=[0.05, 0.10, 0.22], kernels=["gram"])

#: The cold half of the mixed phase: a y axis nothing else evaluates.
COLD_GRID = dict(suite="quick", y=[0.07, 0.12, 0.19], kernels=["gram"])


def _percentile(samples, fraction: float) -> float:
    if not samples:
        return 0.0
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(fraction * (len(ranked) - 1))))
    return ranked[index]


def _run_phase(client_grids) -> dict:
    """Run one request per (client, grid) entry concurrently; measure."""
    latencies = []
    sources: dict = {}
    errors = []
    lock = threading.Lock()

    def drive(client, grids):
        for grid in grids:
            start = time.perf_counter()
            try:
                outcome = client.sweep(**grid)
            except Exception as error:  # noqa: BLE001 - recorded, reraised
                with lock:
                    errors.append(error)
                return
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
                for source, count in outcome.cell_sources().items():
                    sources[source] = sources.get(source, 0) + count

    start = time.perf_counter()
    threads = [threading.Thread(target=drive, args=(client, grids))
               for client, grids in client_grids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"load-generator request failed: {errors[0]!r}")

    cells = sum(sources.values())
    warm = sources.get("memo", 0) + sources.get("store", 0)
    return {
        "requests": len(latencies),
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(len(latencies) / wall, 2) if wall else 0.0,
        "latency_p50_ms": round(_percentile(latencies, 0.50) * 1000, 2),
        "latency_p99_ms": round(_percentile(latencies, 0.99) * 1000, 2),
        "latency_mean_ms": round(statistics.mean(latencies) * 1000, 2)
        if latencies else 0.0,
        "cells": cells,
        "cell_sources": dict(sorted(sources.items())),
        "warm_hit_rate": round(warm / cells, 4) if cells else 0.0,
    }


def run_server_bench(clients: int = 4, hot_rounds: int = 5) -> dict:
    """The ``server`` section of ``BENCH_pipeline.json`` (see module doc)."""
    if clients < 2:
        raise ValueError("the load generator needs at least 2 clients")
    clear_process_caches()
    with tempfile.TemporaryDirectory(prefix="bench-server-") as tmp:
        store = ReportStore(Path(tmp) / "store")
        server = create_server(port=0, store=store)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        try:
            pool = [ServerClient(host, port) for _ in range(clients)]

            # Phase 1 — cold: everyone asks for the same unevaluated grid
            # at once; coalescing means it is computed once.
            cold = _run_phase([(client, [HOT_GRID]) for client in pool])

            # Phase 2 — hot: the repeated-request phase (hit-rate criterion).
            hot = _run_phase([(client, [HOT_GRID] * hot_rounds)
                              for client in pool])

            # Phase 3 — mixed: half repeat the hot grid, half go cold.
            half = clients // 2
            mixed = _run_phase(
                [(client, [HOT_GRID]) for client in pool[:half]]
                + [(client, [COLD_GRID]) for client in pool[half:]])

            stats = pool[0].stats()
            pool[0].shutdown()
        finally:
            thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("server failed to shut down cleanly")

    return {
        "clients": clients,
        "hot_rounds": hot_rounds,
        "grid_cells_per_request": len(HOT_GRID["y"]) * 3,
        "phases": {"cold": cold, "hot": hot, "mixed": mixed},
        "service": stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent clients (default: 4)")
    parser.add_argument("--hot-rounds", type=int, default=5,
                        help="repeat count per client in the hot phase "
                             "(default: 5)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_pipeline.json",
                        help="BENCH json to merge the server section into "
                             "(other sections are preserved)")
    args = parser.parse_args(argv)

    section = run_server_bench(clients=args.clients,
                               hot_rounds=args.hot_rounds)

    payload = {}
    if args.output.exists():
        payload = json.loads(args.output.read_text())
    payload["server"] = section
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    for name, phase in section["phases"].items():
        print(f"{name:>5}: {phase['requests']} requests, "
              f"p50 {phase['latency_p50_ms']:.1f}ms / "
              f"p99 {phase['latency_p99_ms']:.1f}ms, "
              f"{phase['throughput_rps']:.1f} req/s, "
              f"warm hit rate {phase['warm_hit_rate']:.0%}")
    service = section["service"]
    print(f"server: {service['passes']} passes over {service['tickets']} "
          f"tickets, {service['coalesced']} cells coalesced away, "
          f"{service['computed']} computed "
          f"(lifetime warm hit rate {service['warm_hit_rate']:.0%})")
    print(f"wrote server section to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
