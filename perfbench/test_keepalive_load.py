"""Schedule, percentile and rung arithmetic of the keep-alive load generator,
checked against a fake clock and a fake server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from keepalive_load import (
    KeepAliveConnection,
    OpenLoop,
    Record,
    RungResult,
    climb,
    crossing_rate,
    due_times,
    highest_supported_percentile,
    nearest_rank,
    requests_for_percentile,
    samples_beyond,
)


class FakeClock:
    """A clock that only moves when someone sleeps or a fake request runs."""

    def __init__(self) -> None:
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds


class FakeServer:
    """Answers every post after ``service_s`` of fake time."""

    def __init__(self, clock: FakeClock, service_s: float) -> None:
        self.clock = clock
        self.service_s = service_s
        self.posts = []
        self.closed = False

    def post(self, body, headers=None):
        self.posts.append((body, headers))
        self.clock.sleep(self.service_s)
        return 200, {"echo": body.decode()}, None

    def close(self):
        self.closed = True


def test_due_times_follow_the_rate():
    assert due_times(2.0, 10.0, 4) == pytest.approx([2.0, 2.1, 2.2, 2.3])
    with pytest.raises(ValueError):
        due_times(0.0, 0.0, 3)


def test_percentile_needs_ten_samples_beyond_it():
    assert requests_for_percentile(90.0) == 100
    assert requests_for_percentile(99.0) == 1000
    for q in (50.0, 90.0, 99.0, 99.9):
        assert samples_beyond(requests_for_percentile(q), q) >= 10
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(999) == 95.0
    assert samples_beyond(100, 90.0) == 10 and samples_beyond(99, 90.0) == 9
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(40) == 50.0
    assert highest_supported_percentile(15) is None
    assert nearest_rank(list(range(1, 101)), 90.0) == 90.0
    assert nearest_rank([3.0, 1.0, 2.0], 50.0) == 2.0


def test_latency_counts_from_due_time_when_the_server_stalls():
    clock = FakeClock()
    server = FakeServer(clock, service_s=0.25)
    with OpenLoop(lambda: server, threads=1, clock=clock, sleep=clock.sleep) as loop:
        records = loop.run(10.0, [b"a", b"b", b"c", b"d"], lead_s=0.05)
    assert server.closed
    assert [r.index for r in records] == [0, 1, 2, 3]
    assert [r.due for r in records] == pytest.approx([0.05, 0.15, 0.25, 0.35])
    # one connection, 0.25 s per answer, a request due every 0.1 s: each
    # send waits for the previous answer, so lateness grows by 0.15 s
    assert [r.lag_ms for r in records] == pytest.approx([0.0, 150.0, 300.0, 450.0])
    assert [r.latency_ms for r in records] == pytest.approx([250.0, 400.0, 550.0, 700.0])
    assert all(r.status == 200 for r in records)


def test_sends_wait_for_their_due_time_on_a_fast_server():
    clock = FakeClock()
    server = FakeServer(clock, service_s=0.01)
    with OpenLoop(lambda: server, threads=1, clock=clock, sleep=clock.sleep) as loop:
        records = loop.run(4.0, [b"x"] * 3, headers_for=lambda i: {"X-API-Key": f"r{i}"})
    assert [r.lag_ms for r in records] == pytest.approx([0.0, 0.0, 0.0])
    assert [r.latency_ms for r in records] == pytest.approx([10.0, 10.0, 10.0])
    assert [h for _, h in server.posts] == [{"X-API-Key": f"r{i}"} for i in range(3)]


def test_threads_share_the_schedule_and_keep_one_connection_each():
    clock = FakeClock()
    servers = []

    def connect():
        servers.append(FakeServer(clock, service_s=0.02))
        return servers[-1]

    bodies = [str(i).encode() for i in range(40)]
    with OpenLoop(connect, threads=2, clock=clock, sleep=clock.sleep) as loop:
        records = loop.run(50.0, bodies)
    assert len(servers) == 2
    assert sum(len(s.posts) for s in servers) == 40
    assert [r.body["echo"] for r in records] == [str(i) for i in range(40)]
    assert all(r.sent >= r.due for r in records)


def _rung(rate, latencies_ms, failed=0):
    records = [Record(i, 0.0, 0.0, ms / 1000.0, 200) for i, ms in enumerate(latencies_ms)]
    return RungResult(rate, records, failed)


def test_rung_passes_on_p90_within_limit_and_no_failure():
    assert _rung(10, [50.0] * 90 + [100.0] * 10).passes()
    # p90 is the 90th of 100 sorted samples: ten slow requests are allowed,
    # eleven are not
    assert not _rung(10, [50.0] * 89 + [101.0] * 11).passes()
    assert not _rung(10, [5.0] * 100, failed=1).passes()
    with pytest.raises(ValueError):
        _rung(10, [5.0] * 50).passes()


def test_windowed_percentile_is_the_median_over_full_windows():
    # three windows of 100; the middle one is slowed by a burst of host load
    latencies = [10.0] * 100 + [80.0] * 100 + [12.0] * 89 + [20.0] * 11
    rung = _rung(10, latencies)
    assert rung.percentile_ms(90) == 80.0
    assert rung.windowed_percentile_ms(90, 100) == 20.0
    assert rung.windowed_percentile_ms(50, 100) == 12.0
    # a partial last window is left out
    assert _rung(10, latencies + [500.0] * 50).windowed_percentile_ms(90, 100) == 20.0
    with pytest.raises(ValueError):
        _rung(10, [5.0] * 99).windowed_percentile_ms(90, 100)


def test_climb_stops_at_the_first_failure_and_interpolates_the_limit():
    limits = {10: 20.0, 20: 40.0, 40: 250.0, 80: 30.0}
    ran = []

    def run_rung(rate):
        ran.append(rate)
        return _rung(rate, [limits[rate]] * 100)

    best, rungs = climb([80, 20, 40, 10], run_rung)
    assert ran == [10, 20, 40]
    assert [r.rate for r in rungs] == [10, 20, 40]
    # p90 goes from 40 ms at 20/s to 250 ms at 40/s: 100 ms at 20 + 20 * 60/210
    assert best == pytest.approx(20.0 + 20.0 * 60.0 / 210.0)

    best, rungs = climb([10, 20], lambda rate: _rung(rate, [5.0] * 100))
    assert best == 20 and len(rungs) == 2
    best, rungs = climb([10, 20], lambda rate: _rung(rate, [5.0] * 100, failed=1))
    assert best == 0.0 and len(rungs) == 1


def test_crossing_rate_is_continuous_where_a_rung_flips():
    # a 40/s rung just failing and just passing give nearly the same rate
    just_failed = crossing_rate(_rung(20, [12.0] * 100), _rung(40, [101.0] * 100))
    just_passed = crossing_rate(_rung(40, [99.0] * 100), _rung(80, [1200.0] * 100))
    assert just_failed == pytest.approx(39.78, abs=0.01)
    assert just_passed == pytest.approx(40.04, abs=0.01)
    # a rung failed by errors keeps the last passing rate
    assert crossing_rate(_rung(20, [12.0] * 100), _rung(40, [12.0] * 100, failed=2)) == 20


class _Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"port": self.client_address[1]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_keepalive_connection_reuses_one_socket():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        conn = KeepAliveConnection("127.0.0.1", server.server_address[1], "/", timeout_s=5.0)
        answers = [conn.post(b"{}") for _ in range(3)]
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [status for status, _, _ in answers] == [200, 200, 200]
    assert len({body["port"] for _, body, _ in answers}) == 1


def test_transport_error_reads_as_status_zero():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    port = server.server_address[1]
    server.server_close()
    conn = KeepAliveConnection("127.0.0.1", port, "/", timeout_s=2.0)
    status, body, error = conn.post(b"{}")
    conn.close()
    assert status == 0 and body is None and "Error" in error
