#!/usr/bin/env python3
"""Closed-loop capacity of the daemon per request kind, to re-derive
``RATE`` in ``run.py``.

Run from the root of a checkout::

    python3 perfbench/capacity.py

Starts one ``python -m repro serve --workers 1 --store DIR`` daemon set up as
in the ``daemon-mixed`` workload (hot grids answered once, store-warm grids
pre-written with the CLI), then sends each kind of request back to back on
1 and on 2 connections and prints requests per second.  ``daemon-mixed``
offers half the 2-connection capacity for never-seen requests.
"""

import contextlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

import run

REQUESTS = 30


def closed_loop(client, grids, connections: int):
    """Send ``grids`` back to back; (requests/s, median latency ms)."""
    pending = iter(grids)
    lock = threading.Lock()
    latencies = []

    def sender():
        while True:
            with lock:
                grid = next(pending, None)
            if grid is None:
                return
            start = time.monotonic()
            client.sweep(suite="quick", **grid)
            latencies.append(time.monotonic() - start)

    start = time.monotonic()
    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (len(grids) / (time.monotonic() - start),
            statistics.median(latencies) * 1000.0)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from repro.cli import main as cli_main

    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="capacity-", dir=work))
    args = types.SimpleNamespace(seed=0, seconds=1, trace=0,
                                 workload="daemon-mixed")
    bench = run.Bench(root, tmp, args)
    os.environ.update(REPRO_CORPUS_CACHE=bench.env["REPRO_CORPUS_CACHE"])
    hot_y = {y for grid in run.HOT_GRIDS for y in grid["y"]}
    pool = [{"y": [y]} for y in (round(0.011 + 0.001 * k, 3)
                                  for k in range(290)) if y not in hot_y]
    stored, fresh = pool[:2 * REQUESTS], pool[2 * REQUESTS:4 * REQUESTS]
    store = tmp / "store"
    for grid in stored:
        cli_args = run._cli_sweep_args(grid, bench.path("reference"))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli_main(cli_args + ["--store", str(store)])
    child, client, _ = run._start_daemon(bench, store, False)
    try:
        for grid in run.HOT_GRIDS:
            client.sweep(suite="quick", **grid)
        hot = [run.HOT_GRIDS[i % 2] for i in range(REQUESTS)]
        for connections in (1, 2):
            offset = (connections - 1) * REQUESTS
            for kind, grids in (("hot", hot),
                                ("store", stored[offset:offset + REQUESTS]),
                                ("fresh", fresh[offset:offset + REQUESTS])):
                rate, p50 = closed_loop(client, grids, connections)
                print(f"{kind:5s} {connections} connection(s): "
                      f"{rate:6.2f} requests/s, p50 {p50:6.1f} ms")
    finally:
        client.shutdown()
        child.wait()
        bench.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
