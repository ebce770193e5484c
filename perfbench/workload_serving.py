"""mlp-serve: a ``repro serve`` process driven open-loop over keep-alive HTTP.

The server runs ``--dataset mnist --model mlp --time-steps 100 --scheme
phase-burst`` with every other CLI default (1 replica, ``max_wait_ms`` 5,
batches of up to 8).  The generator (:mod:`keepalive_load`) climbs the rate
ladder; the nominal rate is the first rung.  Images go round-robin over the
test split in an order permuted by the seed, and every answer is checked
against an in-process ``InferenceSession.run`` of the same image.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import Outcome, Tracer, clock, log, median, nproc, timed_calls, wrapped
from keepalive_load import (
    KeepAliveConnection, OpenLoop, Record, RungResult, climb, highest_supported_percentile,
    requests_for_percentile,
)
from snn_trace import kernel_counts, layer_metrics, step_busy_s, step_driven

DATASET = "mnist"
MODEL = "mlp"
TIME_STEPS = 100
SCHEME = "phase-burst"
# the training set-up `repro serve` uses by default
SAMPLES_PER_CLASS = 30
EPOCHS = 12
WORKLOAD_SEED = 0
RATES = (10.0, 20.0, 40.0, 80.0, 160.0)
NOMINAL_RATE = RATES[0]
REQUESTS_PER_RUNG = requests_for_percentile(90.0)
#: the nominal rung sends this many windows of REQUESTS_PER_RUNG requests,
#: and its percentiles are medians over the windows
NOMINAL_WINDOWS = 3
#: requests the fresh server answers at the nominal rate before the ladder;
#: the first seconds after start-up ran slower than the rest
WARMUP_REQUESTS = 20
SETUP_REPEATS = 5
TARGET_FRACTION = 0.99
STARTUP_TIMEOUT_S = 60.0


class _Reference:
    """The served model rebuilt in-process, with the reference answer, spikes
    and per-step outputs of every test image (one image per batch, as the
    server mostly sees them)."""

    def __init__(self, seed: int) -> None:
        from repro.analysis.curves import latency_to_target
        from repro.core.hybrid import HybridCodingScheme
        from repro.engine.session import InferenceSession
        from repro.experiments.workloads import build_workload
        from repro.serving.engine import ServingConfig, ServingEngine
        from repro.snn.network import SimulationConfig

        workload = build_workload(
            dataset=DATASET, model=MODEL, seed=WORKLOAD_SEED,
            samples_per_class=SAMPLES_PER_CLASS, epochs=EPOCHS,
        )
        test = workload.data.test.shuffled(seed)
        self.x, self.labels = test.x, test.y
        # the server's normalisation recipe, through its own engine
        with ServingEngine(workload.model, workload.data.train.x,
                           ServingConfig(time_steps=TIME_STEPS)) as engine:
            normalization = engine.normalization
        self.session = InferenceSession.from_model(
            workload.model,
            HybridCodingScheme.from_notation(SCHEME),
            config=SimulationConfig(time_steps=TIME_STEPS, record_outputs_every=1, seed=0),
            normalization=normalization,
            seed=0,
        )
        count = len(self.x)
        self.predictions = np.empty(count, dtype=np.int64)
        correct = None
        spikes = 0.0
        for i in range(count):
            result = self.session.run(self.x[i : i + 1])
            self.predictions[i] = int(result.final_outputs.argmax(axis=1)[0])
            hits = result.output_history[:, 0, :].argmax(axis=1) == self.labels[i]
            correct = hits.astype(np.float64) if correct is None else correct + hits
            spikes += result.record.total_spikes()
            steps = result.recorded_steps
        target = TARGET_FRACTION * workload.model.evaluate(self.x, self.labels)
        latency = latency_to_target(correct / count, steps, target)
        # a target never reached within the horizon reads as horizon + 1
        self.steps_to_target = latency if latency is not None else TIME_STEPS + 1
        self.spikes_per_image = spikes / count
        self.bodies = [
            json.dumps({"image": image.ravel().tolist()}).encode() for image in self.x
        ]

    def check(self, image: int, record: Record) -> bool:
        return (
            record.status == 200
            and record.body is not None
            and record.body.get("prediction") == int(self.predictions[image])
        )


class _Ladder:
    """Round-robin image assignment and answer checks across the rungs."""

    def __init__(self, reference: _Reference) -> None:
        self.reference = reference
        self.next_image = 0
        self.served = 0
        self.correct_labels = 0
        self.exit_steps: List[int] = []

    def run(
        self, loop: OpenLoop, rate: float, requests: int = REQUESTS_PER_RUNG, headers_for=None
    ) -> RungResult:
        count = len(self.reference.bodies)
        images = [(self.next_image + j) % count for j in range(requests)]
        self.next_image = (images[-1] + 1) % count
        records = loop.run(rate, [self.reference.bodies[i] for i in images], headers_for)
        failed = 0
        for image, record in zip(images, records):
            if not self.reference.check(image, record):
                failed += 1
                log(f"mlp-serve: request {record.index} at {rate:g}/s failed: "
                    f"status {record.status} {record.error or record.body}")
                continue
            self.served += 1
            self.correct_labels += record.body["prediction"] == int(self.reference.labels[image])
            frozen = record.body.get("frozen_at")
            self.exit_steps.append(TIME_STEPS if frozen is None else int(frozen))
        return RungResult(rate, records, failed)


def _start_server(root: Path, log_file) -> Tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dataset", DATASET, "--model", MODEL,
         "--time-steps", str(TIME_STEPS), "--scheme", SCHEME, "--port", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=log_file, text=True,
    )
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:  # keeps the pipe drained for the server's lifetime
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    deadline = clock() + STARTUP_TIMEOUT_S
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - clock()))
        except queue.Empty:
            line = None
        if line is None:
            _stop_server(proc)
            raise RuntimeError("repro serve did not report its address")
        if "listening on http://" in line:
            port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            return proc, port


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def _first_ok(port: int, body: bytes) -> None:
    conn = KeepAliveConnection("127.0.0.1", port, "/v1/classify")
    try:
        deadline = clock() + STARTUP_TIMEOUT_S
        while clock() < deadline:
            status, _, _ = conn.post(body)
            if status == 200:
                return
        raise RuntimeError("repro serve never answered 200")
    finally:
        conn.close()


def _connect(port: int):
    return lambda: KeepAliveConnection("127.0.0.1", port, "/v1/classify")


def run_untraced(root: Path, seed: int) -> Outcome:
    outcome = Outcome()
    reference = _Reference(seed)
    outcome.put("spikes_per_image", reference.spikes_per_image, "spikes")
    outcome.put("steps_to_target", reference.steps_to_target, "steps")

    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    setups: List[float] = []
    ladder = _Ladder(reference)
    proc: Optional[subprocess.Popen] = None
    with open(out / "mlp-serve-server.log", "w") as log_file:
        try:
            for _ in range(SETUP_REPEATS):
                if proc is not None:
                    _stop_server(proc)
                start = clock()
                proc, port = _start_server(root, log_file)
                _first_ok(port, reference.bodies[0])
                setups.append(clock() - start)
            outcome.put("setup_s", median(setups), "s")
            with OpenLoop(_connect(port), threads=nproc()) as loop:

                def run_rung(rate: float) -> RungResult:
                    windows = NOMINAL_WINDOWS if rate == NOMINAL_RATE else 1
                    return ladder.run(loop, rate, windows * REQUESTS_PER_RUNG)

                warmup = ladder.run(loop, NOMINAL_RATE, WARMUP_REQUESTS)
                max_rate, rungs = climb(RATES, run_rung)
        finally:
            if proc is not None:
                _stop_server(proc)
    nominal = rungs[0]
    tail = highest_supported_percentile(len(nominal.records))
    outcome.put("latency_p50_ms", nominal.windowed_percentile_ms(50, REQUESTS_PER_RUNG), "ms")
    outcome.put("max_rate_rps", max_rate, "req/s")
    # a request carries one image: the sustainable rate is the served throughput
    outcome.put("images_per_s", max_rate, "img/s")
    outcome.put("accuracy", ladder.correct_labels / max(1, ladder.served), "fraction")
    outcome.put("mean_exit_step", float(np.mean(ladder.exit_steps or [TIME_STEPS])), "steps")
    outcome.attempted = sum(len(r.records) for r in rungs + [warmup])
    outcome.failed = sum(r.failed for r in rungs + [warmup])
    outcome.detail.update(
        setup_repeats_s=setups,
        # the tail is recorded, not gated: it moves with host load (SPEC.md)
        tail_percentile=tail,
        tail_ms=nominal.percentile_ms(tail),
        nominal_latencies_ms=nominal.latencies_ms,
        rungs=[
            {"rate": r.rate, "requests": len(r.records), "failed": r.failed,
             "p50_ms": r.percentile_ms(50), "p90_ms": r.percentile_ms(90),
             "max_lag_ms": r.max_lag_ms, "passed": r.passes()}
            for r in rungs
        ],
    )
    return outcome


def run_traced(seed: int) -> Tuple[Outcome, Tracer, List[str]]:
    import repro.engine.session as session_module
    from repro.engine.plan import SimulationPlan
    from repro.engine.session import InferenceSession
    from repro.experiments.workloads import build_workload
    from repro.serving.engine import ServingConfig, ServingEngine
    from repro.serving.http import ServingHTTPServer

    outcome = Outcome()
    tracer = Tracer()
    with tracer.span("setup.train"):
        workload = build_workload(
            dataset=DATASET, model=MODEL, seed=WORKLOAD_SEED,
            samples_per_class=SAMPLES_PER_CLASS, epochs=EPOCHS,
        )
    engine = ServingEngine(workload.model, workload.data.train.x,
                           ServingConfig(time_steps=TIME_STEPS))
    with tracer.span("setup.normalize"):
        engine.normalization  # noqa: B018 - computes and caches
    with tracer.span("setup.build"):
        engine.warm(SCHEME)
    prepares: List[Tuple[float, float, object]] = []
    with wrapped(SimulationPlan, "prepare", timed_calls(prepares)):
        engine.classify_sync(workload.data.test.x[0], SCHEME)
    # built after the first prepare, which must find the calibrations cold
    reference = _Reference(seed)
    for name in ("setup.train", "setup.normalize", "setup.build"):
        outcome.put(f"{name}_s", tracer.total(name), "s")
    outcome.put("plan.first_prepare_s", prepares[0][1] - prepares[0][0], "s")

    classify: Dict[str, List[float]] = {}

    def wrap_classify(original):
        def wrapper(image, scheme=SCHEME, *, priority=None, client_id=None):
            start = clock()
            future = original(image, scheme, priority=priority, client_id=client_id)
            entry = classify[client_id] = [start, clock(), 0.0]
            future.add_done_callback(lambda _: entry.__setitem__(2, clock()))
            return future
        return wrapper

    runs: List[Tuple[float, float, object]] = []
    executes: List[Tuple[float, float, object]] = []
    prepares.clear()
    server = ServingHTTPServer(engine, port=0, default_scheme=SCHEME).start()
    try:
        with OpenLoop(_connect(server.port), threads=nproc()) as loop:
            ladder = _Ladder(reference)
            untraced = ladder.run(loop, NOMINAL_RATE)
            with wrapped(engine, "classify", wrap_classify), \
                    wrapped(InferenceSession, "run", timed_calls(runs)), \
                    wrapped(SimulationPlan, "prepare", timed_calls(prepares)), \
                    wrapped(session_module, "execute", timed_calls(executes)):
                traced = ladder.run(
                    loop, NOMINAL_RATE, headers_for=lambda i: {"X-API-Key": f"req-{i}"}
                )
    finally:
        server.close()
    outcome.attempted = len(untraced.records) + len(traced.records)
    outcome.failed = untraced.failed + traced.failed

    admit, queued, transport = [], [], []
    for record in traced.records:
        start, end, done = classify[f"req-{record.index}"]
        tracer.add("serving.classify", start, end, f"req-{record.index}")
        tracer.add("serving.engine", start, done, f"req-{record.index}")
        tracer.add("serving.client", record.sent, record.done, f"req-{record.index}")
        batch_start = max(s for s, e, _ in runs if e <= done)
        admit.append(end - start)
        queued.append(batch_start - end)
        transport.append((record.done - record.sent) - (done - start))
    for start, end, _ in runs:
        tracer.add("serving.simulate", start, end)
    outcome.put("serving.admit_ms", median(admit) * 1000.0, "ms")
    outcome.put("serving.queue_ms", median(queued) * 1000.0, "ms")
    outcome.put("serving.transport_ms", median(transport) * 1000.0, "ms")
    outcome.put("serving.simulate_ms", median([e - s for s, e, _ in runs]) * 1000.0, "ms")
    outcome.put(
        "serving.batch_size_mean",
        float(np.mean([result.batch_size for _, _, result in runs])), "images",
    )
    outcome.put("serving.generator_lag_ms", traced.max_lag_ms, "ms")
    outcome.put("plan.prepare_ms", median([e - s for s, e, _ in prepares]) * 1000.0, "ms")
    outcome.put("run.execute_ms", median([e - s for s, e, _ in executes]) * 1000.0, "ms")
    outcome.put(
        "trace.overhead_ratio", traced.percentile_ms(50) / untraced.percentile_ms(50), "ratio"
    )

    # per-layer busy time: replay every test image at batch size 1, the size
    # the nominal rate mostly produces, step by step under spans, and time
    # the engine's own execute on the same prepared inputs
    from repro.engine.run import execute

    plan = reference.session.plan
    spikes: Counter = Counter()
    execute_s = 0.0
    for i in range(len(reference.x)):
        image = reference.x[i : i + 1]
        with tracer.span("run.step_driven", request=f"image-{i}"):
            step_driven(plan.prepare(image), tracer, spikes)
        prepared = plan.prepare(image)
        start = clock()
        execute(prepared)
        execute_s += clock() - start
    layer_metrics(outcome, tracer, plan.network, spikes, len(reference.x))
    outcome.put("run.overhead_share", 1.0 - step_busy_s(tracer) / execute_s, "fraction")
    choices = kernel_counts(outcome)
    outcome.detail.update(
        kernel_choices=choices,
        untraced_p50_ms=untraced.percentile_ms(50),
        traced_p50_ms=traced.percentile_ms(50),
    )
    return outcome, tracer, [layer.name for layer in plan.network.layers]
