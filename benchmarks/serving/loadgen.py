"""Open-loop bursty load generator for the ``repro serve`` HTTP API.

Drives a real server (in-process :class:`~repro.serving.http.ServingHTTPServer`
in the benchmark, or an external ``repro serve`` process via the CLI entry
point below) with an **open-loop** arrival process: requests fire at
pre-scheduled wall-clock offsets regardless of how fast earlier responses come
back, so a slow server accumulates queueing delay instead of silently slowing
the generator down (closed-loop generators hide exactly the overload this
benchmark exists to measure).

Arrivals are **bursty**: ``burst_size`` requests land together at the start of
every ``burst_interval_s`` window — the arrival shape micro-batching
schedulers care about.  Each request is one ``POST /v1/classify`` carrying one
image (round-robin over the provided pool) and records its status code,
end-to-end latency and response body; :func:`summarise` folds the records into
throughput and p50/p95/p99 latency.

Stdlib only (``urllib``, ``threading``) — the generator must not need
anything the serving stack itself doesn't.

CLI (used by the CI smoke job against a live ``repro serve``)::

    python benchmarks/serving/loadgen.py --url http://127.0.0.1:8311 \
        --requests 24 --burst-size 8 --burst-interval-s 0.2 --shape 1,28,28
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class RequestRecord:
    """Outcome of one load-generated classify request."""

    index: int
    status: int
    latency_ms: float
    scheduled_at_s: float
    #: response body (result payload or error payload); None on transport error
    body: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class LoadResult:
    """All records of one load run plus the measured wall-clock duration."""

    records: List[RequestRecord] = field(default_factory=list)
    wall_s: float = 0.0

    def summarise(self) -> Dict[str, object]:
        return summarise(self.records, self.wall_s)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (mirrors :func:`repro.serving.metrics.percentile`)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def bursty_offsets(
    num_requests: int, burst_size: int, burst_interval_s: float
) -> List[float]:
    """Scheduled start offsets: bursts of ``burst_size`` simultaneous arrivals
    every ``burst_interval_s`` seconds."""
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    if burst_interval_s < 0:
        raise ValueError(f"burst_interval_s must be >= 0, got {burst_interval_s}")
    return [(index // burst_size) * burst_interval_s for index in range(num_requests)]


def _post_classify(
    url: str, payload: dict, timeout_s: float
) -> "tuple[int, Optional[dict]]":
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"{url}/v1/classify",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        try:
            return error.code, json.load(error)
        except Exception:
            return error.code, None
    except Exception:
        return 0, None  # transport-level failure (refused, timeout, reset)


def run_load(
    url: str,
    images: Sequence[Sequence[float]],
    *,
    num_requests: int,
    burst_size: int,
    burst_interval_s: float,
    scheme: Optional[str] = None,
    priority: Optional[str] = None,
    client_id: Optional[str] = None,
    timeout_s: float = 120.0,
) -> LoadResult:
    """Fire the open-loop bursty schedule at ``url`` and collect every record.

    ``images`` is a pool of JSON-ready image payloads (nested or flat lists);
    request *i* carries ``images[i % len(images)]``, so a fixed pool makes the
    request sequence — and with a deterministic server, the answers —
    reproducible across runs and replica counts.
    """
    offsets = bursty_offsets(num_requests, burst_size, burst_interval_s)
    records: List[Optional[RequestRecord]] = [None] * num_requests
    start = time.monotonic() + 0.05  # common epoch, slightly in the future

    def fire(index: int) -> None:
        delay = start + offsets[index] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        payload: Dict[str, object] = {"image": images[index % len(images)]}
        if scheme is not None:
            payload["scheme"] = scheme
        if priority is not None:
            payload["priority"] = priority
        if client_id is not None:
            payload["client_id"] = client_id
        sent = time.monotonic()
        status, body = _post_classify(url, payload, timeout_s)
        records[index] = RequestRecord(
            index=index,
            status=status,
            latency_ms=(time.monotonic() - sent) * 1000.0,
            scheduled_at_s=offsets[index],
            body=body,
        )

    threads = [
        threading.Thread(target=fire, args=(index,), name=f"loadgen-{index}")
        for index in range(num_requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s + 60.0)
    wall_s = time.monotonic() - start
    done = [record for record in records if record is not None]
    return LoadResult(records=done, wall_s=wall_s)


def summarise(records: Sequence[RequestRecord], wall_s: float) -> Dict[str, object]:
    """Fold request records into the benchmark row: throughput + percentiles."""
    ok = [record for record in records if record.ok]
    latencies = [record.latency_ms for record in ok]
    status_counts: Dict[str, int] = {}
    for record in records:
        key = str(record.status)
        status_counts[key] = status_counts.get(key, 0) + 1
    return {
        "requests": len(records),
        "ok": len(ok),
        "status_counts": dict(sorted(status_counts.items())),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(ok) / wall_s, 3) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50.0), 3),
            "p95": round(percentile(latencies, 95.0), 3),
            "p99": round(percentile(latencies, 99.0), 3),
            "max": round(max(latencies), 3) if latencies else 0.0,
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="open-loop bursty load generator for repro serve"
    )
    parser.add_argument("--url", required=True, help="server base URL")
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--burst-size", type=int, default=8)
    parser.add_argument("--burst-interval-s", type=float, default=0.2)
    parser.add_argument("--scheme", default=None)
    parser.add_argument("--priority", default=None)
    parser.add_argument("--client-id", default=None)
    parser.add_argument("--timeout-s", type=float, default=120.0)
    parser.add_argument(
        "--shape",
        default="1,28,28",
        help="comma-separated image shape; requests carry a flat zero image",
    )
    parser.add_argument(
        "--min-ok", type=int, default=1,
        help="exit non-zero unless at least this many requests succeeded",
    )
    parser.add_argument("--out", default=None, help="also write the summary JSON here")
    args = parser.parse_args(argv)

    size = 1
    for dim in args.shape.split(","):
        size *= int(dim)
    image = [0.0] * size
    result = run_load(
        args.url,
        [image],
        num_requests=args.requests,
        burst_size=args.burst_size,
        burst_interval_s=args.burst_interval_s,
        scheme=args.scheme,
        priority=args.priority,
        client_id=args.client_id,
        timeout_s=args.timeout_s,
    )
    summary = result.summarise()
    print(json.dumps(summary, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    if summary["ok"] < args.min_ok:
        print(
            f"error: only {summary['ok']} of {args.requests} requests succeeded "
            f"(min-ok {args.min_ok})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
