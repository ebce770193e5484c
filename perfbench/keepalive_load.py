"""Open-loop HTTP/1.1 keep-alive load generator for the serving workload.

One process, at most ``nproc`` threads, one persistent connection per thread.
Request ``i`` of a rung is due at ``start + i / rate``.  A thread takes the
next request as soon as it is free, sleeps until that request is due and
sends it, so arrivals follow the schedule whatever the server does (an open
loop).  Latency is measured from the due time: when the server stalls, the
requests queued behind the stall are late, and that wait is counted.  How
late each send left against its due time is the generator lag; when it is
large the generator, not the server, limited the rung.

Stdlib only and free of ``repro`` imports, so the schedule, percentile and
rung arithmetic can be tested against a fake clock and a fake server.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: a rung passes when this percentile of its due-time latencies is within
#: the limit (and every request succeeded)
RUNG_PERCENTILE = 90.0
RUNG_LIMIT_MS = 100.0
#: a percentile is reported only when at least this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10


@dataclass
class Record:
    """Timing and outcome of one request (times from the generator's clock)."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # 0 on a transport error or timeout
    body: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def due_times(start: float, rate: float, count: int) -> List[float]:
    """The fixed schedule: request ``i`` is due at ``start + i / rate``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + i / rate for i in range(count)]


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    return min(count, max(1, math.ceil(q * count / 100.0)))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    return float(sorted(values)[_rank(len(values), q) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the nearest-rank ``q``."""
    return count - _rank(count, q)


def highest_supported_percentile(
    count: int,
    candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 50.0),
    min_beyond: int = MIN_SAMPLES_BEYOND,
) -> Optional[float]:
    """The highest candidate percentile with at least ``min_beyond`` of
    ``count`` samples beyond it (``None`` when even the lowest has fewer)."""
    for q in sorted(candidates, reverse=True):
        if count > 0 and samples_beyond(count, q) >= min_beyond:
            return q
    return None


def requests_for_percentile(q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> int:
    """Requests per rung so that the share ``1 - q/100`` of them is at least
    ``min_beyond`` samples (100 for p90)."""
    return math.ceil(min_beyond * 100.0 / (100.0 - q))


@dataclass
class RungResult:
    """One rate of the ladder: its records and how many failed the check."""

    rate: float
    records: List[Record]
    failed: int

    @property
    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.records]

    def percentile_ms(self, q: float) -> float:
        return nearest_rank(self.latencies_ms, q)

    def windowed_percentile_ms(self, q: float, size: int) -> float:
        """Median over consecutive windows of ``size`` requests of each
        window's ``q`` latency, so that a burst of host load slowing one
        window does not set the figure.  Needs at least one full window; a
        partial last window is left out."""
        windows = [
            self.latencies_ms[i : i + size] for i in range(0, len(self.records) - size + 1, size)
        ]
        if not windows:
            raise ValueError(f"{len(self.records)} requests fill no window of {size}")
        return statistics.median(nearest_rank(window, q) for window in windows)

    @property
    def max_lag_ms(self) -> float:
        return max((r.lag_ms for r in self.records), default=0.0)

    def passes(self, limit_ms: float = RUNG_LIMIT_MS, q: float = RUNG_PERCENTILE) -> bool:
        """Every request succeeded and the ``q`` latency is within the limit.

        A growing backlog fails the rung through its due-time latencies."""
        if self.failed or not self.records:
            return False
        if samples_beyond(len(self.records), q) < MIN_SAMPLES_BEYOND:
            raise ValueError(
                f"{len(self.records)} requests are too few for p{q:g} "
                f"(need {requests_for_percentile(q)})"
            )
        return self.percentile_ms(q) <= limit_ms


def crossing_rate(
    passed: RungResult,
    failed: RungResult,
    limit_ms: float = RUNG_LIMIT_MS,
    q: float = RUNG_PERCENTILE,
) -> float:
    """The rate at which the ``q`` latency reaches the limit, interpolated
    linearly between the last passing rung and the first failing one.

    A rung near capacity passes in one run and fails in the next; the
    interpolated rate moves little when that happens, where the rung rate
    would double or halve.  A rung that failed through errors, not latency,
    leaves the last passing rate.
    """
    low, high = passed.percentile_ms(q), failed.percentile_ms(q)
    if failed.failed or high <= low:
        return passed.rate
    share = (limit_ms - low) / (high - low)
    return passed.rate + share * (failed.rate - passed.rate)


def climb(
    rates: Sequence[float], run_rung: Callable[[float], RungResult]
) -> Tuple[float, List[RungResult]]:
    """Run the rungs in increasing rate until one fails.

    Returns the highest sustainable rate and every rung run, the failing one
    included.  That rate is the top rung when every rung passes, 0.0 when the
    first fails, and otherwise :func:`crossing_rate` of the last passing and
    the first failing rung.
    """
    rungs: List[RungResult] = []
    for rate in sorted(rates):
        rungs.append(run_rung(rate))
        if not rungs[-1].passes():
            if len(rungs) == 1:
                return 0.0, rungs
            return crossing_rate(rungs[-2], rungs[-1]), rungs
    return rungs[-1].rate, rungs


class KeepAliveConnection:
    """One persistent HTTP/1.1 connection posting JSON bodies to one path.

    A transport error closes the connection; the next post reconnects.
    """

    def __init__(self, host: str, port: int, path: str, timeout_s: float = 30.0) -> None:
        self.path = path
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def post(
        self, body: bytes, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Optional[dict], Optional[str]]:
        all_headers = {"Content-Type": "application/json"}
        all_headers.update(headers or {})
        try:
            self._conn.request("POST", self.path, body=body, headers=all_headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            return 0, None, f"{type(exc).__name__}: {exc}"
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            return response.status, None, f"bad JSON: {exc}"
        return response.status, payload, None

    def close(self) -> None:
        self._conn.close()


class OpenLoop:
    """Drives rungs over a fixed pool of connections, one thread each.

    ``connect`` makes one connection (an object with ``post(body, headers)``
    returning ``(status, json_body, error)`` and ``close()``); ``clock`` and
    ``sleep`` are injectable for tests.  The connections persist across
    rungs until :meth:`close`.
    """

    def __init__(
        self,
        connect: Callable[[], object],
        threads: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.clock = clock
        self.sleep = sleep
        self._connections = [connect() for _ in range(threads)]

    def run(
        self,
        rate: float,
        bodies: Sequence[bytes],
        headers_for: Optional[Callable[[int], Dict[str, str]]] = None,
        lead_s: float = 0.05,
    ) -> List[Record]:
        """Send ``bodies[i]`` due at ``start + i / rate``; return the records
        in request order.  ``start`` is ``lead_s`` after the call."""
        due = due_times(self.clock() + lead_s, rate, len(bodies))
        records: List[Optional[Record]] = [None] * len(bodies)
        pending = iter(range(len(bodies)))
        lock = threading.Lock()

        def work(conn) -> None:
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                wait = due[index] - self.clock()
                if wait > 0:
                    self.sleep(wait)
                sent = self.clock()
                headers = headers_for(index) if headers_for is not None else None
                status, body, error = conn.post(bodies[index], headers)
                records[index] = Record(index, due[index], sent, self.clock(), status, body, error)

        workers = [
            threading.Thread(target=work, args=(conn,))
            for conn in self._connections[: len(bodies)]
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        missing = [i for i, record in enumerate(records) if record is None]
        if missing:
            raise RuntimeError(f"{len(missing)} requests were never sent")
        return records  # type: ignore[return-value]

    def close(self) -> None:
        for conn in self._connections:
            conn.close()

    def __enter__(self) -> "OpenLoop":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
