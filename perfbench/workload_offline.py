"""vgg-early-exit: the paper's Table 2 VGG run, offline, with early exit.

``cifar10_workload()`` (vgg_small, 30 samples per class, 15 epochs) is
converted under phase-burst coding with ``v_th=0.125`` and the full 80-image
test split runs in batches of 16 for T=150 with ``early_exit_patience=25``
through ``SNNInferencePipeline.run_scheme``.  The seed permutes the test
images, which changes the batch compositions (and with them the early-exit
shrink pattern) but not the images.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import numpy as np

from common import Outcome, Tracer, clock, log, median, timed_calls, wrapped
from keepalive_load import nearest_rank
from snn_trace import kernel_choices, kernel_counts, layer_metrics, step_busy_s, step_driven

WORKLOAD = "vgg-early-exit"
TIME_STEPS = 150
BATCH_SIZE = 16
V_TH = 0.125
PATIENCE = 25
TARGET_FRACTION = 0.99
SETUP_REPEATS = 3
#: passes over the test split measured in every run, however short the window
MIN_PASSES = 1


class _Offline:
    """The workload's inputs and the objects every run builds from them."""

    def __init__(self, seed: int, workload) -> None:
        from repro.core.hybrid import HybridCodingScheme
        from repro.core.pipeline import PipelineConfig
        from repro.data.dataset import DataSplit
        from repro.snn.network import SimulationConfig

        self.workload = workload
        self.data = DataSplit(
            train=workload.data.train,
            test=workload.data.test.shuffled(seed),
            name=workload.data.name,
            metadata=workload.data.metadata,
        )
        self.scheme = HybridCodingScheme.from_notation("phase-burst", v_th=V_TH)
        self.config = PipelineConfig(
            time_steps=TIME_STEPS, batch_size=BATCH_SIZE, seed=0, early_exit_patience=PATIENCE
        )
        # the simulation config run_scheme derives from the pipeline config
        self.sim_config = SimulationConfig(
            time_steps=TIME_STEPS,
            record_outputs_every=self.config.record_outputs_every,
            record_trains=self.config.record_trains,
            sample_fraction=self.config.sample_fraction,
            seed=self.config.seed,
            early_exit_patience=PATIENCE,
        )
        x = self.data.test.x
        self.batches = [(s, min(s + BATCH_SIZE, len(x))) for s in range(0, len(x), BATCH_SIZE)]
        self.dnn_predictions = workload.model.predict(x)

    def cold_setup(self, tracer: Tracer) -> Tuple[object, object, float]:
        """Normalise, build and prepare the first batch from cold process-wide
        calibration state; returns the pipeline, its SNN and the seconds."""
        from repro.core.pipeline import SNNInferencePipeline
        from repro.engine.session import InferenceSession
        from repro.utils.sparsity import clear_calibration_cache

        clear_calibration_cache()
        pipeline = SNNInferencePipeline(self.workload.model, self.data, self.config)
        start = clock()
        with tracer.span("setup.normalize"):
            pipeline.normalization  # noqa: B018 - computes and caches
        with tracer.span("setup.build"):
            snn = pipeline.build_snn(self.scheme)
        with tracer.span("plan.first_prepare"):
            InferenceSession(snn, self.sim_config).plan.prepare(
                self.data.test.x[: self.batches[0][1]]
            )
        return pipeline, snn, clock() - start

    def failed_batches(self, run) -> int:
        """Batches whose SNN predictions differ from the source DNN's."""
        predictions = run.outputs_final.argmax(axis=1)
        return sum(
            bool(np.any(predictions[s:e] != self.dnn_predictions[s:e])) for s, e in self.batches
        )


def _load(seed: int, tracer: Tracer) -> _Offline:
    from repro.experiments.workloads import cifar10_workload

    with tracer.span("setup.train"):
        workload = cifar10_workload()
    return _Offline(seed, workload)


def _first_pass_metrics(outcome: Outcome, run, dnn_accuracy: float) -> None:
    metrics = run.metrics(target_accuracy=TARGET_FRACTION * dnn_accuracy)
    outcome.put("accuracy", run.accuracy, "fraction")
    outcome.put("spikes_per_image", run.spikes_per_image, "spikes")
    # a target never reached within the horizon reads as horizon + 1
    outcome.put(
        "steps_to_target",
        metrics.latency if metrics.latency is not None else TIME_STEPS + 1,
        "steps",
    )
    exits: List[int] = []
    for result in run.batch_results:
        frozen = result.frozen_at
        if frozen is None:
            exits.extend([TIME_STEPS] * result.batch_size)
        else:
            exits.extend(int(f) if f >= 0 else TIME_STEPS for f in frozen)
    outcome.put("mean_exit_step", float(np.mean(exits)), "steps")


def run_untraced(seed: int, seconds: float) -> Outcome:
    from repro.engine.session import InferenceSession

    outcome = Outcome()
    setup = Tracer()
    case = _load(seed, setup)
    train_s = setup.total("setup.train")
    setups = []
    for _ in range(SETUP_REPEATS):
        pipeline, _, setup_s = case.cold_setup(setup)
        setups.append(setup_s)
    outcome.put("setup_s", train_s + median(setups), "s")

    calls: List[Tuple[float, float, object]] = []
    passes = 0
    with wrapped(InferenceSession, "run", timed_calls(calls)):
        window = clock()
        # a pass starts only when, at the mean pass time so far, it ends
        # inside the window: a run measures close to --seconds, never much more
        while passes < MIN_PASSES or (clock() - window) * (passes + 1) / passes <= seconds:
            outcome.attempted += len(case.batches)
            try:
                run = pipeline.run_scheme(case.scheme, keep_batch_results=passes == 0)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                log(f"{WORKLOAD}: pass failed: {exc!r}")
                outcome.failed += len(case.batches)
                break
            outcome.failed += case.failed_batches(run)
            if passes == 0:
                _first_pass_metrics(outcome, run, pipeline.dnn_accuracy)
            passes += 1
    if not passes:
        return outcome

    # every batch counts: set-up already ran the cold prepare, and the conv
    # engine probes of first-seen batch sizes cost a few percent of a pass
    durations = [end - start for start, end, _ in calls]
    size = len(case.batches)
    if len(durations) < passes * size:
        raise RuntimeError(f"{len(durations)} batch runs timed for {passes} passes of {size}")
    # every pass does the same work, so the median pass leaves out the passes
    # a burst of host load slowed
    pass_s = median([sum(durations[i * size : (i + 1) * size]) for i in range(passes)])
    images_per_s = len(case.data.test.x) / pass_s
    outcome.put("images_per_s", images_per_s, "img/s")
    outcome.put("latency_p50_ms", nearest_rank(durations, 50) * 1000.0, "ms")
    outcome.put("max_rate_rps", images_per_s, "req/s")
    outcome.detail.update(
        passes=passes,
        batch_s=durations,
        setup_repeats_s=setups,
        kernel_choices=kernel_choices(),
        train_s=train_s,
    )
    return outcome


def run_traced(seed: int) -> Tuple[Outcome, Tracer, List[str]]:
    import repro.engine.session as session_module
    from repro.engine.plan import SimulationPlan
    from repro.engine.session import InferenceSession

    outcome = Outcome()
    tracer = Tracer()
    case = _load(seed, tracer)
    pipeline, snn, _ = case.cold_setup(tracer)
    outcome.put("setup.train_s", tracer.total("setup.train"), "s")
    outcome.put("setup.normalize_s", tracer.total("setup.normalize"), "s")
    outcome.put("setup.build_s", tracer.total("setup.build"), "s")
    outcome.put("plan.first_prepare_s", tracer.total("plan.first_prepare"), "s")

    # untraced pass: only whole prepare / execute calls are timed
    prepares: List[Tuple[float, float, object]] = []
    executes: List[Tuple[float, float, object]] = []
    with wrapped(SimulationPlan, "prepare", timed_calls(prepares)), \
            wrapped(session_module, "execute", timed_calls(executes)):
        started = clock()
        run = pipeline.run_scheme(case.scheme, keep_batch_results=True)
        untraced_s = clock() - started
    outcome.attempted += len(case.batches)
    outcome.failed += case.failed_batches(run)
    outcome.put("plan.prepare_ms", median([e - s for s, e, _ in prepares]) * 1000.0, "ms")
    outcome.put("run.execute_ms", median([e - s for s, e, _ in executes]) * 1000.0, "ms")

    # traced pass over the same batches, driven step by step
    session = InferenceSession(snn, case.sim_config)
    spikes: Counter = Counter()
    traced_predictions = np.empty(len(case.data.test.x), dtype=np.int64)
    started = clock()
    for index, (s, e) in enumerate(case.batches):
        with tracer.span("plan.prepare", request=f"batch-{index}"):
            prepared = session.plan.prepare(case.data.test.x[s:e])
        with tracer.span("run.step_driven", request=f"batch-{index}"):
            scores = step_driven(prepared, tracer, spikes, run.batch_results[index].frozen_at)
        traced_predictions[s:e] = scores.argmax(axis=1)
    traced_s = clock() - started
    # the replay must reproduce the engine's answers, or its spans mean nothing
    agree = float(np.mean(traced_predictions == run.outputs_final.argmax(axis=1)))
    if agree < 1.0:
        log(f"{WORKLOAD}: traced replay agrees with the engine on {agree:.3f} of images")
        outcome.failed += 1
    outcome.attempted += 1

    layer_metrics(outcome, tracer, snn, spikes, len(case.data.test.x))
    execute_s = sum(e - s for s, e, _ in executes)
    outcome.put("run.overhead_share", 1.0 - step_busy_s(tracer) / execute_s, "fraction")
    outcome.put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    choices = kernel_counts(outcome)
    outcome.detail.update(
        kernel_choices=choices,
        untraced_pass_s=untraced_s,
        traced_pass_s=traced_s,
        traced_agreement=agree,
    )
    return outcome, tracer, [layer.name for layer in snn.layers]
