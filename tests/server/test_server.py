"""Evaluation daemon integration: coalescing, byte-identity, shutdown.

The server's contract is that it is *transparent*: any artifact fetched
through it is byte-identical to the one the serial CLI path writes, no
matter how many clients were coalesced into the pass that computed it —
and stopping the daemon never strands a ticket, a lease, or a
shared-memory segment (the autouse ``no_leaked_shared_memory`` check
covers the last).
"""

import http.client
import json
import queue
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.experiments.runner import clear_process_caches
from repro.experiments.store import LEASES_DIR, ReportStore
from repro.experiments.sweep import plan_grid
from repro.server import (
    EvaluationService,
    ServerClient,
    ServiceClosed,
    ServiceError,
    artifact_bytes,
    create_server,
    serve,
)
from repro.server import http as server_http
from repro.server.http import MAX_BODY_BYTES
from repro.tensor.suite import small_suite


def _requests(y_values=(0.05,)):
    return list(plan_grid(small_suite(), y_values=list(y_values)).requests)


def _gate_passes(service):
    """Hold each of ``service``'s passes inside ``scheduler.prefetch``.

    Returns ``(entered, release)``: every pass puts its unique-cell count
    on the ``entered`` queue as it enters the scheduler, then blocks until
    the ``release`` event is set.  Tests use this to keep a pass in flight
    for as long as they need, with no timing assumptions.
    """
    entered = queue.SimpleQueue()
    release = threading.Event()
    prefetch = service.scheduler.prefetch

    def gated(requests, **kwargs):
        entered.put(len(requests))
        assert release.wait(timeout=120), "test never released the pass"
        return prefetch(requests, **kwargs)

    service.scheduler.prefetch = gated
    return entered, release


class _CountingQueue(queue.Queue):
    """A queue that counts the blocking ``get`` calls made on it."""

    def __init__(self):
        super().__init__()
        self.blocking_gets = 0

    def get(self, block=True, timeout=None):
        if block:
            self.blocking_gets += 1
        return super().get(block, timeout)


@pytest.fixture()
def live_server(tmp_path):
    """A daemon on a free port over a fresh store; drained at teardown."""
    clear_process_caches()
    store = ReportStore(tmp_path / "store")
    server = create_server(port=0, store=store)
    thread = threading.Thread(target=serve, args=(server,))
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServerClient(host, port), store
    finally:
        if thread.is_alive():
            try:
                ServerClient(host, port).shutdown()
            except Exception:
                server.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive(), "server failed to drain and stop"


class TestService:
    """The coalescing loop, driven deterministically (no timing windows)."""

    def test_concurrent_tickets_coalesce_into_one_pass(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        first = service.submit(_requests())
        second = service.submit(_requests())
        assert service.step() == 2

        counters = service.counters
        assert counters.passes == 1
        assert counters.tickets == 2
        assert counters.requests == 2 * len(_requests())
        assert counters.coalesced == len(_requests())  # second ticket free
        assert counters.computed == len(_requests())

        for ticket in (first, second):
            events = list(ticket.events())
            cells = [event for event in events if event["event"] == "cell"]
            assert len(cells) == len(_requests())
            assert {cell["source"] for cell in cells} == {"computed"}
            assert events[-1]["event"] == "done"
        service.close()

    def test_cells_report_their_serving_tier(self, tmp_path):
        """The same grid is served ``computed`` → ``store`` → ``memo`` as it
        climbs the warm tiers."""
        def sources(ticket):
            return {event["source"] for event in ticket.events()
                    if event["event"] == "cell"}

        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        service = EvaluationService(store=store, auto_start=False)
        cold = service.submit(_requests())
        service.step()
        assert sources(cold) == {"computed"}
        service.close()

        clear_process_caches()  # simulate a fresh process over the store
        service = EvaluationService(store=store, auto_start=False)
        warm_disk = service.submit(_requests())
        service.step()
        assert sources(warm_disk) == {"store"}

        warm_memo = service.submit(_requests())
        service.step()
        assert sources(warm_memo) == {"memo"}
        assert service.counters.store_hits == len(_requests())
        assert service.counters.memo_hits == len(_requests())
        service.close()

    def test_close_drains_queued_tickets(self, tmp_path):
        """Graceful shutdown: a ticket queued (in flight) at close() time is
        still evaluated to completion, not dropped."""
        clear_process_caches()
        service = EvaluationService(
            store=ReportStore(tmp_path / "store"), auto_start=False)
        ticket = service.submit(_requests())
        service.close(drain=True)  # no loop thread: drains inline
        done = ticket.wait()
        assert done["event"] == "done"
        assert done["schedule"]["computed"] == len(_requests())
        with pytest.raises(ServiceClosed):
            service.submit(_requests())

    def test_close_without_drain_fails_tickets_fast(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        ticket = service.submit(_requests())
        service.close(drain=False)
        with pytest.raises(ServiceError, match="shut down"):
            ticket.wait()

    def test_pass_failure_fails_every_coalesced_ticket(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        bad = _requests()[0]
        bad = type(bad)(suite_token=("bogus",), architecture=bad.architecture,
                        overbooking_target=0.1, workload=bad.workload)
        first = service.submit([bad])
        second = service.submit([bad])
        service.step()
        for ticket in (first, second):
            with pytest.raises(ServiceError):
                ticket.wait()
        service.close()


class TestNaturalBatching:
    """The live loop never waits for company: it starts a pass as soon as it
    is free, over every ticket queued by then.  Driven with gated passes."""

    def test_lone_ticket_on_idle_loop_starts_without_waiting(self):
        clear_process_caches()
        service = EvaluationService(auto_start=False)
        service._queue = counting = _CountingQueue()
        entered, release = _gate_passes(service)
        service.start()
        ticket = service.submit(_requests())
        try:
            assert entered.get(timeout=60) == len(_requests())
            # The loop blocked once, for this ticket, and went straight into
            # the pass: no second, timed wait for more tickets to arrive.
            assert counting.blocking_gets == 1
        finally:
            release.set()
        assert ticket.wait()["schedule"]["computed"] == len(_requests())
        service.close()

    def test_tickets_queued_behind_a_running_pass_share_the_next(self):
        clear_process_caches()
        service = EvaluationService()
        entered, release = _gate_passes(service)
        first = service.submit(_requests())
        assert entered.get(timeout=60) == len(_requests())  # pass 1 held
        second = service.submit(_requests())
        third = service.submit(_requests())
        release.set()
        for ticket in (first, second, third):
            ticket.wait()
        assert entered.get(timeout=60) == len(_requests())  # one pass 2
        service.close()

        counters = service.counters
        assert counters.passes == 2
        assert counters.tickets == 3
        assert counters.coalesced == len(_requests())
        # Every cell computed once, in pass 1; pass 2 found them warm.
        assert counters.computed == len(_requests())
        assert counters.memo_hits == len(_requests())
        assert entered.empty()


class TestHTTPEndpoints:
    def test_health_and_stats_counters(self, live_server):
        client, _store = live_server
        assert client.health() == {"status": "ok"}

        cold = client.sweep(suite="quick", y=[0.05])
        hot = client.sweep(suite="quick", y=[0.05])
        assert cold.cell_sources() == {"computed": 3}
        assert hot.cell_sources() == {"memo": 3}

        stats = client.stats()
        assert stats["passes"] >= 2
        assert stats["computed"] == 3
        assert stats["memo_hits"] == 3
        assert stats["store_session"]["writes"] == 3
        assert 0.0 < stats["warm_hit_rate"] <= 1.0

    def test_store_tier_serves_a_cold_process(self, tmp_path):
        """A second daemon over the same store serves the first one's work
        from disk — the fleet-wide warm path."""
        store_dir = tmp_path / "store"
        clear_process_caches()
        server = create_server(port=0, store=ReportStore(store_dir))
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        client = ServerClient(*server.server_address[:2])
        try:
            assert client.sweep(suite="quick",
                                y=[0.05]).cell_sources() == {"computed": 3}
        finally:
            client.shutdown()
            thread.join(timeout=60)

        clear_process_caches()  # "new process": memo gone, store remains
        server = create_server(port=0, store=ReportStore(store_dir))
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        client = ServerClient(*server.server_address[:2])
        try:
            assert client.sweep(suite="quick",
                                y=[0.05]).cell_sources() == {"store": 3}
        finally:
            client.shutdown()
            thread.join(timeout=60)

    def test_unknown_path_and_bad_body(self, live_server):
        client, _store = live_server
        connection = http.client.HTTPConnection(client.host, client.port)
        connection.request("POST", "/sweep", body=b"{not json",
                           headers={"Connection": "close"})
        response = connection.getresponse()
        assert response.status == 400
        assert b"not JSON" in response.read()
        connection.close()

        with pytest.raises(Exception, match="404|unknown"):
            client._json("GET", "/nonesuch")

    def test_unknown_experiment_is_a_request_error(self, live_server):
        client, _store = live_server
        with pytest.raises(Exception, match="nonesuch|unknown"):
            client.run(["nonesuch"])


class TestRequestLimits:
    """``Content-Length`` is validated before any of the body is read."""

    @staticmethod
    def _post_sweep(client, content_length: str):
        """POST /sweep declaring ``content_length`` but sending no body: a
        server that tried to read the declared body would hang here."""
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Content-Length", content_length)
            connection.endheaders()
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @staticmethod
    def _post_json(client, path: str, body: dict):
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=30)
        try:
            connection.request("POST", path, body=json.dumps(body).encode())
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize("content_length", ["abc", "1.5", "-5"])
    def test_malformed_or_negative_length_is_400(self, live_server,
                                                 content_length):
        client, _store = live_server
        status, payload = self._post_sweep(client, content_length)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert client.health() == {"status": "ok"}

    def test_oversized_body_is_413(self, live_server):
        client, _store = live_server
        status, payload = self._post_sweep(client, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert client.health() == {"status": "ok"}
        assert client.stats()["tickets"] == 0

    #: 3 y x 3 GLB scales x 1 PE scale x 1 kernel x 1 workload = 9 cells.
    NINE_CELL_GRID = {"suite": "quick", "y": [0.05, 0.10, 0.22],
                      "glb_scales": [0.5, 1.0, 2.0], "pe_scales": [1.0],
                      "kernels": ["gram"]}

    @pytest.mark.parametrize("path", ["/sweep", "/search"])
    def test_grid_above_cell_limit_is_413(self, live_server, monkeypatch,
                                          path):
        monkeypatch.setattr(server_http, "MAX_GRID_CELLS", 8)
        client, _store = live_server
        body = dict(self.NINE_CELL_GRID,
                    workloads=small_suite().names[:1])
        status, payload = self._post_json(client, path, body)
        assert status == 413
        assert "9 cells" in payload["error"]
        assert "8-cell limit" in payload["error"]
        assert client.stats()["tickets"] == 0

    def test_grid_cell_count_spans_every_axis(self, monkeypatch):
        suite = small_suite()
        axes = server_http._grid_kwargs_from_body(self.NINE_CELL_GRID)
        monkeypatch.setattr(server_http, "MAX_GRID_CELLS", 9 * len(suite))
        server_http._check_grid_cells(suite, axes)  # at the limit: planned
        monkeypatch.setattr(server_http, "MAX_GRID_CELLS",
                            9 * len(suite) - 1)
        with pytest.raises(server_http.RequestError) as refused:
            server_http._check_grid_cells(suite, axes)
        assert refused.value.status == 413

    @pytest.mark.parametrize("path", ["/sweep", "/search"])
    @pytest.mark.parametrize("y", [["high"], 5])
    def test_malformed_grid_axis_is_400(self, live_server, path, y):
        client, _store = live_server
        status, payload = self._post_json(client, path, {"y": y})
        assert status == 400
        assert "bad grid axis" in payload["error"]


class TestByteIdentity:
    def test_concurrent_overlapping_clients_match_serial_cli(
            self, live_server, tmp_path, capsys):
        """The golden test: N concurrent clients with overlapping grids all
        receive artifacts byte-identical to a serial ``python -m repro
        sweep`` of the same grid."""
        client, _store = live_server
        grids = [
            {"suite": "quick", "y": [0.05, 0.10]},
            {"suite": "quick", "y": [0.05, 0.10]},   # identical (coalesces)
            {"suite": "quick", "y": [0.10, 0.22]},   # overlaps at y=0.10
        ]
        outcomes = [None] * len(grids)

        def drive(index):
            outcomes[index] = client.sweep(**grids[index])

        threads = [threading.Thread(target=drive, args=(index,))
                   for index in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for index, grid in enumerate(grids):
            out_dir = tmp_path / f"cli-{index}"
            assert main(["sweep", "--suite", "quick",
                         "--y", ",".join(str(y) for y in grid["y"]),
                         "--output-dir", str(out_dir)]) == 0
            cli_bytes = (out_dir / "sweep.json").read_bytes()
            assert artifact_bytes(outcomes[index].artifact) == cli_bytes, (
                f"server artifact {index} diverged from the CLI bytes")

    def test_run_endpoint_matches_cli_artifact_payload(
            self, live_server, tmp_path, capsys):
        client, _store = live_server
        outcome = client.run(["table2"], suite="quick")
        artifact = [event for event in outcome.events
                    if event["event"] == "artifact"][0]["payload"]

        out_dir = tmp_path / "cli-run"
        assert main(["run", "table2", "--suite", "quick", "--quiet",
                     "--output-dir", str(out_dir)]) == 0
        cli_payload = json.loads((out_dir / "table2.json").read_text())
        # The CLI payload adds wall-clock ``seconds``; everything
        # identity-bearing must match exactly.
        assert artifact["result"] == cli_payload["result"]
        assert artifact["experiment"] == cli_payload["experiment"]
        assert artifact["suite"] == cli_payload["suite"]


def _wait_until_refused(host, port, timeout=60.0):
    """Poll until the listening socket is closed (connections refused)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection((host, port), timeout=5).close()
        except OSError:
            return
        time.sleep(0.01)
    raise AssertionError("daemon kept accepting connections")


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_request(self, tmp_path):
        """A /shutdown racing an in-flight /sweep: the sweep still streams
        to completion (drained, not dropped), and nothing is orphaned —
        no lease files in the store, no shm segments (autouse check)."""
        clear_process_caches()
        store = ReportStore(tmp_path / "store")
        server = create_server(port=0, store=store)
        entered, release = _gate_passes(server.service)
        thread = threading.Thread(target=serve, args=(server,))
        thread.start()
        host, port = server.server_address[:2]

        # Raw connection so the stream can be read event by event.
        connection = http.client.HTTPConnection(host, port, timeout=120)
        connection.request(
            "POST", "/sweep",
            body=json.dumps({"suite": "quick", "y": [0.05]}).encode(),
            headers={"Content-Type": "application/json",
                     "Connection": "close"})
        response = connection.getresponse()
        first = json.loads(response.readline())
        assert first["event"] == "plan"

        # Hold the pass in flight and shut down under it: wait until the
        # daemon stops accepting connections while the pass is still held.
        try:
            assert entered.get(timeout=60) == 3
            ServerClient(host, port).shutdown()
            _wait_until_refused(host, port)
        finally:
            release.set()

        events = [json.loads(line) for line in response if line.strip()]
        assert events[-1]["event"] == "result"
        assert events[-1]["schedule"]["computed"] == 3
        connection.close()

        thread.join(timeout=60)
        assert not thread.is_alive()

        leases = store.root / LEASES_DIR
        assert not leases.exists() or not any(leases.iterdir()), (
            "graceful shutdown left orphaned lease files")

        # And the daemon really is down: new requests are refused.
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(host, port, timeout=5)
            probe.request("GET", "/health")
            probe.getresponse()
