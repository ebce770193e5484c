"""Concurrent serving demo: micro-batching, replicas, priorities, quotas.

Starts a :class:`~repro.serving.engine.ServingEngine` (and, to show the full
stack, the stdlib HTTP front end on an ephemeral port) over a small trained
workload, then answers the same set of classify requests two ways:

1. **sequential single-image runs** — each image simulated alone through one
   shared session, the way independent callers without a serving layer
   would;
2. **concurrent clients through the micro-batching scheduler** — requests
   submitted together, coalesced into batches of up to ``max_batch_size``,
   one simulation serving several requests.

The printed metrics show the batch-size histogram (proof the scheduler
coalesced) and the wall-clock amortisation; the predictions are identical in
both modes.

It then scales the same workload out over a **replica session pool**
(``num_replicas=2``: two inference sessions sharing one set of float64
weight masters, drained by two batcher workers), submits a mix of
``interactive`` and ``batch`` **priority** traffic, and demonstrates the
per-client **rate limits**: a client that exceeds its ``max_rps`` budget gets
HTTP 429 with a computed ``Retry-After`` while other clients sail through.

Run with:  PYTHONPATH=src python examples/serving_client.py
"""

import json
import urllib.error
import urllib.request

from repro.experiments.workloads import build_workload
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.http import ServingHTTPServer
from repro.utils.timing import Timer

NUM_REQUESTS = 16
TIME_STEPS = 60
SCHEME = "phase-burst"


def main() -> None:
    print("training the served workload (synthetic MNIST, small CNN) ...")
    workload = build_workload(
        dataset="mnist", model="small_cnn", samples_per_class=12, epochs=8, seed=0
    )
    images = workload.data.test.x[:NUM_REQUESTS]

    engine = ServingEngine(
        workload.model,
        workload.data.train.x,
        ServingConfig(
            max_batch_size=8, max_wait_ms=25.0, time_steps=TIME_STEPS, seed=0
        ),
    )
    engine.warm(SCHEME)

    # -- baseline: each request simulated alone, one after another ---------
    with Timer() as sequential_timer:
        sequential = [engine.classify_sync(image, SCHEME) for image in images]
    sequential_s = sequential_timer.seconds
    # classify_sync waits for each answer before submitting the next request,
    # so every one of these rode in a batch of exactly 1
    assert all(result.batch_size == 1 for result in sequential)

    # -- concurrent clients: submit everything, let the scheduler batch ----
    with Timer() as batched_timer:
        futures = [engine.classify(image, SCHEME) for image in images]
        batched = [future.result(timeout=120) for future in futures]
    batched_s = batched_timer.seconds

    assert [r.prediction for r in batched] == [r.prediction for r in sequential]
    histogram = engine.metrics.batch_size_histogram()
    print(f"\n{NUM_REQUESTS} requests, {TIME_STEPS} steps, scheme {SCHEME}")
    print(f"sequential single-image runs : {sequential_s * 1000:8.1f} ms total")
    print(f"micro-batched concurrent run : {batched_s * 1000:8.1f} ms total "
          f"({sequential_s / batched_s:.1f}x amortisation)")
    print(f"batch-size histogram         : {histogram}")
    print(f"largest coalesced batch      : {engine.metrics.max_batch_size_seen()}")

    # -- the same engine behind the HTTP front end -------------------------
    with ServingHTTPServer(engine, port=0, default_scheme=SCHEME).start() as server:
        health = json.load(urllib.request.urlopen(server.url + "/healthz", timeout=30))
        body = json.dumps({"image": images[0].tolist()}).encode("utf-8")
        request = urllib.request.Request(
            server.url + "/v1/classify",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        answer = json.load(urllib.request.urlopen(request, timeout=60))
        metrics = json.load(urllib.request.urlopen(server.url + "/metrics", timeout=30))
        print(f"\nHTTP front end on {server.url}")
        print(f"/healthz      : {health['status']}, schemes {health['schemes_loaded']}")
        print(f"/v1/classify  : prediction={answer['prediction']} "
              f"(queue {answer['queue_ms']} ms, batch {answer['batch_ms']} ms)")
        print(f"/metrics      : {metrics['requests_total']} requests, "
              f"p95 latency {metrics['latency_ms']['p95']} ms")
    print("server drained cleanly")

    # -- replica scale-out, priorities, per-client rate limits -------------
    print("\nscaling out: 2 session replicas, priority traffic, rate limits ...")
    engine = ServingEngine(
        workload.model,
        workload.data.train.x,
        ServingConfig(
            max_batch_size=8,
            max_wait_ms=25.0,
            time_steps=TIME_STEPS,
            num_replicas=2,      # two sessions share one set of weight masters
            max_rps=2.0,         # per-client token bucket: 2 req/s ...
            rate_burst=3.0,      # ... with a burst allowance of 3
            seed=0,
        ),
    )
    engine.warm(SCHEME)
    # interactive requests overtake queued batch work; lower value = sooner
    futures = [
        engine.classify(image, SCHEME, priority="batch", client_id=f"tenant-{i % 4}")
        for i, image in enumerate(images[:8])
    ] + [
        engine.classify(images[8], SCHEME, priority="interactive", client_id="vip")
    ]
    answers = [future.result(timeout=120) for future in futures]
    stats = engine.stats()["sessions"][SCHEME]
    print(f"replicas                     : {stats['num_replicas']} "
          f"(batches per replica {stats['batches_per_replica']})")
    print(f"replica utilisation          : {stats['replica_utilisation']}")
    print(f"replicas that served answers : {sorted({a.replica for a in answers})}")

    with ServingHTTPServer(engine, port=0, default_scheme=SCHEME).start() as server:
        body = json.dumps({"image": images[0].tolist()}).encode("utf-8")
        statuses = []
        retry_after = None
        for _ in range(6):  # burst past the 3-token allowance
            request = urllib.request.Request(
                server.url + "/v1/classify",
                data=body,
                headers={"Content-Type": "application/json",
                         "X-API-Key": "greedy-client"},
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    statuses.append(response.status)
                    json.load(response)
            except urllib.error.HTTPError as error:
                statuses.append(error.code)
                retry_after = error.headers.get("Retry-After")
                json.load(error)
        print(f"\ngreedy client statuses       : {statuses}")
        print(f"429 Retry-After guidance     : {retry_after} s")
    print("server drained cleanly")


if __name__ == "__main__":
    main()
