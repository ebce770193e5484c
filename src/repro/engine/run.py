"""Run stage: the time-stepped simulation loop and shard orchestration.

This module owns everything that happens *per step* — encoder stepping,
layer propagation with the producer's nonzero counts, spike recording,
output snapshots and the converged-image early exit — plus the
process-level fan-out used for sharded evaluation.  The build and plan stages
(:mod:`repro.engine.build` / :mod:`repro.engine.plan`) feed it;
``SpikingNetwork.run`` and the pipeline delegate here, so there is exactly
one step loop in the code base.

In float64 the loop is bit-identical to the original seed engine (golden
reference ``benchmarks/perf/seed_reference.json``); the float32 default runs
the direct-conv kernels within the documented tolerance.  Kernel choice is a
pure function of geometry and dtype, so every process — a shard worker or a
serving replica — runs the same kernels on the same batch.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.engine.plan import PreparedBatch, plan_simulation
from repro.snn.network import SimulationConfig, SimulationResult, SpikingNetwork
from repro.utils.logging import get_logger

logger = get_logger("engine.run")

T = TypeVar("T")


def execute(prepared: PreparedBatch, labels: Optional[np.ndarray] = None) -> SimulationResult:
    """Run the step loop over a prepared batch and collect the result.

    ``prepared`` is consumed: the encoder/layer state it bound is advanced by
    the loop, so prepare a fresh batch (``plan.prepare``) for the next run.
    Each step runs the encoder, then every layer's ``step`` in order, feeding
    each layer the exact nonzero count its producer reported.
    """
    plan = prepared.plan
    network = plan.network
    config = plan.config
    dtype = plan.dtype
    batch_size = prepared.batch_size
    record = prepared.record
    input_record = prepared.input_record
    layer_records = prepared.layer_records
    encoder = network.encoder
    layers = network.layers
    output_layer = network.output_layer

    # Snapshot steps are known from the plan, so the output history is one
    # preallocated block filled in place instead of a stack of copies.
    recorded_steps = plan.recorded_steps
    output_history = np.empty(
        (len(recorded_steps), batch_size, network.num_classes), dtype=dtype
    )
    snapshot = 0
    patience = config.early_exit_patience
    # Adaptive early exit: with a margin threshold configured, an image only
    # freezes when its per-step output margin — (top1 − top2 accumulated
    # score) / steps simulated — stays at or above the threshold throughout
    # the whole patience window, on top of the argmax being stable.  With
    # margin=None the loop below is exactly the fixed-count criterion.
    margin = config.early_exit_margin
    # Early-exit bookkeeping: `active` maps the (shrinking) simulated batch
    # back to the original image indices.
    active = np.arange(batch_size)
    latest_logits: Optional[np.ndarray] = None
    prev_pred = stable = frozen_at = None
    margin_scratch = None
    if patience is not None:
        latest_logits = np.zeros((batch_size, network.num_classes), dtype=dtype)
        prev_pred = np.full(batch_size, -1, dtype=np.int64)
        stable = np.zeros(batch_size, dtype=np.int64)
        frozen_at = np.full(batch_size, -1, dtype=np.int64)
        if margin is not None and network.num_classes >= 2:
            # top-two extraction works on this preallocated copy (sliced to
            # the surviving rows), keeping the step loop allocation-free
            margin_scratch = np.empty((batch_size, network.num_classes), dtype=dtype)

    # an encoder whose values are nonzero exactly where it spiked lets the
    # first layer (and the pools downstream) skip activity re-scans
    encoder_tracks_spikes = getattr(encoder, "values_nonzero_tracks_spikes", False)
    record_trains = config.record_trains
    chain = [
        (layer, layer.is_spiking, layer_record)
        for layer, layer_record in zip(layers, layer_records)
    ]
    batch_indices = None
    for t in range(config.time_steps):
        encoded = encoder.step(t)
        if patience is not None:
            batch_indices = active
        input_spikes = encoded.spike_count
        input_record.record_step(encoded.spikes, record_trains, batch_indices, input_spikes)
        values = encoded.values
        nonzero_hint = input_spikes if encoder_tracks_spikes else None
        for layer, is_spiking, layer_record in chain:
            layer.output_nonzero = None
            values = layer.step(values, t, nonzero_hint)
            nonzero_hint = layer.output_nonzero
            if is_spiking:
                layer_record.record_step(
                    layer.last_spikes, record_trains, batch_indices, nonzero_hint
                )
            else:
                layer_record.record_step(None, record_trains)
        record.advance()
        if patience is None:
            if snapshot < len(recorded_steps) and t + 1 == recorded_steps[snapshot]:
                np.copyto(output_history[snapshot], output_layer.logits)
                snapshot += 1
            continue

        logits = output_layer.logits
        latest_logits[active] = logits
        if snapshot < len(recorded_steps) and t + 1 == recorded_steps[snapshot]:
            np.copyto(output_history[snapshot], latest_logits)
            snapshot += 1
        predictions = logits.argmax(axis=1)
        unchanged = predictions == prev_pred[active]
        if margin is None:
            stable[active] = np.where(unchanged, stable[active] + 1, 1)
        else:
            if margin_scratch is not None:
                # the two largest accumulated scores per image, via an
                # in-place partition of the preallocated scratch (no sort)
                scratch = margin_scratch[: logits.shape[0]]
                np.copyto(scratch, logits)
                scratch.partition(logits.shape[1] - 2, axis=1)
                confident = (scratch[:, -1] - scratch[:, -2]) / (t + 1) >= margin
                qualifies = unchanged & confident
            else:
                qualifies = unchanged  # a 1-class output has no margin
            # unlike the pure argmax criterion (where the step after a flip is
            # already 1 step of the *new* prediction's stability), a step that
            # misses the margin contributes nothing to the confident streak
            stable[active] = np.where(qualifies, stable[active] + 1, 0)
        prev_pred[active] = predictions
        frozen = stable[active] >= patience
        if frozen.any() and t + 1 < config.time_steps:
            frozen_at[active[frozen]] = t + 1
            keep = np.flatnonzero(~frozen)
            if keep.size == 0:
                # every image converged: repeat the converged scores for the
                # remaining recorded steps and stop simulating
                while snapshot < len(recorded_steps):
                    np.copyto(output_history[snapshot], latest_logits)
                    snapshot += 1
                break
            encoder.shrink_batch(keep)
            for layer in layers:
                layer.shrink_batch(keep)
            active = active[keep]

    return SimulationResult(
        output_history=output_history,
        recorded_steps=np.asarray(recorded_steps, dtype=np.int64),
        record=record,
        time_steps=config.time_steps,
        batch_size=batch_size,
        num_neurons=network.num_neurons(),
        labels=None if labels is None else np.asarray(labels),
        frozen_at=frozen_at,
    )


def simulate(
    network: SpikingNetwork,
    x: np.ndarray,
    config: Optional[SimulationConfig] = None,
    labels: Optional[np.ndarray] = None,
) -> SimulationResult:
    """One-shot convenience: plan, prepare and execute a single batch.

    ``SpikingNetwork.run`` delegates here; callers serving many batches
    should hold an :class:`~repro.engine.session.InferenceSession` instead,
    which reuses the plan across requests.
    """
    plan = plan_simulation(network, config)
    return execute(plan.prepare(x), labels=labels)


# -- shard orchestration -----------------------------------------------------

def resolve_worker_count(requested: Optional[int], num_batches: int, log=None) -> int:
    """Effective worker count, guarding the shard path on 1-CPU machines.

    ``log`` is the caller's logger for the fallback note (``None`` uses this
    module's); ``REPRO_FORCE_SHARDING=1`` overrides the single-CPU guard.
    """
    if not requested or requested <= 1 or num_batches <= 1:
        return 1
    cpus = os.cpu_count() or 1
    if cpus <= 1 and not os.environ.get("REPRO_FORCE_SHARDING"):
        (log or logger).info(
            "num_workers=%d requested, but this machine has a single CPU; "
            "running the shards in-process instead of spawning workers",
            requested,
        )
        return 1
    return min(requested, num_batches, max(cpus, 2))


def shard_ranges(num_images: int, batch_size: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``num_images`` into ``workers`` contiguous whole-batch shards."""
    num_batches = -(-num_images // batch_size)
    per_shard = -(-num_batches // workers)
    ranges = []
    for first_batch in range(0, num_batches, per_shard):
        start = first_batch * batch_size
        stop = min((first_batch + per_shard) * batch_size, num_images)
        ranges.append((start, stop))
    return ranges


def run_sharded(
    worker: Callable[[int, int], T],
    ranges: Sequence[Tuple[int, int]],
    workers: int,
) -> List[T]:
    """Fan shard ranges out to worker processes and collect them in order.

    ``worker`` must be picklable (e.g. a bound method of a picklable object,
    or a :func:`functools.partial` over one) and is called as
    ``worker(start, stop)`` inside each process.  Kernel choice depends only
    on geometry and dtype, so workers run the kernels a sequential run would
    and the results merge deterministically.
    """
    import concurrent.futures
    import multiprocessing

    # the platform-default start method is deliberate: forcing fork on
    # platforms that default to spawn (macOS) is unsafe after the parent has
    # run BLAS work
    context = multiprocessing.get_context()
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    ) as pool:
        futures = [pool.submit(worker, start, stop) for start, stop in ranges]
        return [future.result() for future in futures]
