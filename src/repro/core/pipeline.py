"""End-to-end inference pipeline: train → convert → simulate → measure.

Every experiment in the paper follows the same workflow:

1. train a DNN on the task (or reuse a trained one),
2. convert it to an SNN with data-based weight normalisation,
3. attach a hybrid coding scheme (input encoder + hidden threshold dynamics),
4. simulate the SNN over the test set for a time budget,
5. report accuracy / latency / spike count / density / energy.

:class:`SNNInferencePipeline` packages steps 2–5 so that Table 1, Table 2 and
Figures 2–5 are all driven through one code path, with the weight
normalisation shared across coding schemes (so every scheme sees identical
weights, as in the paper).

The heavy lifting is delegated to the layered engine (:mod:`repro.engine`):
conversion goes through the *build* stage, every batch is served through a
reusable :class:`~repro.engine.session.InferenceSession` (*plan* + *run*),
and sharded evaluation fans out through the engine's shard orchestration —
the pipeline itself only owns dataset slicing, caching policy and the
statistics merge.

Sharded evaluation
------------------
``PipelineConfig(num_workers=N)`` splits the test set into contiguous shards
of whole batches and simulates them in worker processes, merging the
per-shard statistics deterministically: shards are reduced in order, each
shard runs the exact sequential code path, and kernel choice is a pure
function of geometry and dtype, so the workers run the same kernels a
sequential run would.  The merged :class:`AggregatedRun` is therefore
bit-identical to a sequential run in both dtypes.  On single-CPU machines the
pipeline logs a note and falls back to in-process execution instead of
spawning workers that would only add overhead (``REPRO_FORCE_SHARDING=1``
overrides the guard, for tests).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import InferenceMetrics, compute_inference_metrics
from repro.ann.model import Sequential
from repro.conversion.converter import ConversionConfig
from repro.conversion.normalization import NormalizationResult, normalize_weights
from repro.core.hybrid import HybridCodingScheme
from repro.data.dataset import DataSplit
from repro.engine.build import build_network
from repro.engine.run import resolve_worker_count, run_sharded, shard_ranges
from repro.engine.session import InferenceSession
from repro.snn.network import SimulationConfig, SimulationResult, SpikingNetwork
from repro.utils.config import FrozenConfig, validate_positive
from repro.utils.logging import get_logger

logger = get_logger("core.pipeline")


@dataclass(frozen=True)
class PipelineConfig(FrozenConfig):
    """Configuration of one pipeline evaluation.

    Attributes
    ----------
    time_steps:
        Simulation horizon (the paper's latency budget, e.g. 1,500).
    batch_size:
        Test images simulated together (memory/speed trade-off only).
    record_outputs_every:
        Snapshot the output scores every N steps (1 = full inference curve).
    record_trains:
        Record sampled spike trains (needed by Fig. 1/2/5 analyses).
    sample_fraction:
        Fraction of neurons per layer whose trains are recorded (paper: 10%).
    max_test_images:
        Evaluate only the first N test images (None = all).
    calibration_images:
        Number of training images used for data-based weight normalisation.
    conversion:
        DNN→SNN conversion options.
    seed:
        Seed for neuron sampling and any stochastic encoder.
    early_exit_patience:
        Forwarded to :class:`~repro.snn.network.SimulationConfig`: freeze
        images whose output argmax has been stable for this many steps
        (``None`` disables, leaving results identical to the seed engine).
    early_exit_margin:
        Forwarded to :class:`~repro.snn.network.SimulationConfig`: with the
        adaptive criterion, images additionally need their per-step output
        margin at or above this threshold throughout the patience window
        (requires ``early_exit_patience``; ``None`` keeps the fixed
        argmax-stability count).
    backend:
        Compute backend for every simulation of this pipeline (a registered
        :mod:`repro.backends` name; ``None`` = the backend policy default).
    num_workers:
        Shard batch evaluation across this many worker processes (``None`` or
        1 = sequential).  Falls back to in-process execution on single-CPU
        machines.
    """

    time_steps: int = 200
    batch_size: int = 32
    record_outputs_every: int = 1
    record_trains: bool = False
    sample_fraction: float = 0.1
    max_test_images: Optional[int] = None
    calibration_images: int = 128
    conversion: ConversionConfig = field(default_factory=ConversionConfig)
    seed: int = 0
    early_exit_patience: Optional[int] = None
    early_exit_margin: Optional[float] = None
    backend: Optional[str] = None
    num_workers: Optional[int] = None

    def __post_init__(self) -> None:
        validate_positive("time_steps", self.time_steps)
        validate_positive("batch_size", self.batch_size)
        validate_positive("record_outputs_every", self.record_outputs_every)
        validate_positive("calibration_images", self.calibration_images)
        if self.max_test_images is not None:
            validate_positive("max_test_images", self.max_test_images)
        if self.early_exit_patience is not None:
            validate_positive("early_exit_patience", self.early_exit_patience)
        if self.early_exit_margin is not None:
            validate_positive("early_exit_margin", self.early_exit_margin)
            if self.early_exit_patience is None:
                raise ValueError(
                    "early_exit_margin requires early_exit_patience (the margin "
                    "must hold for a patience window to freeze an image)"
                )
        if self.backend is not None:
            from repro.backends import validate_backend_name

            validate_backend_name(self.backend)
        if self.num_workers is not None:
            validate_positive("num_workers", self.num_workers)


@dataclass
class AggregatedRun:
    """Result of evaluating one coding scheme over the whole test set.

    The per-batch simulation results are merged into test-set-wide curves:
    ``accuracy_curve`` over the recorded steps and ``cumulative_spikes`` over
    every simulation step (summed over all evaluated images).
    """

    scheme: str
    recorded_steps: np.ndarray
    accuracy_curve: np.ndarray
    cumulative_spikes: np.ndarray
    time_steps: int
    num_images: int
    num_neurons: int
    dnn_accuracy: float
    labels: np.ndarray
    outputs_final: np.ndarray
    batch_results: List[SimulationResult] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        """Final SNN accuracy after the full time budget."""
        return float(self.accuracy_curve[-1]) if self.accuracy_curve.size else 0.0

    @property
    def total_spikes(self) -> int:
        return int(self.cumulative_spikes[-1]) if self.cumulative_spikes.size else 0

    @property
    def spikes_per_image(self) -> float:
        return self.total_spikes / self.num_images if self.num_images else 0.0

    def metrics(self, target_accuracy: Optional[float] = None) -> InferenceMetrics:
        """Summarise the run as one table row (optionally against a target)."""
        return compute_inference_metrics(
            scheme=self.scheme,
            accuracy_curve=self.accuracy_curve,
            recorded_steps=self.recorded_steps,
            cumulative_spikes=self.cumulative_spikes,
            num_neurons=self.num_neurons,
            num_images=self.num_images,
            dnn_accuracy=self.dnn_accuracy,
            time_steps=self.time_steps,
            target_accuracy=target_accuracy,
        )


@dataclass
class _ShardResult:
    """Statistics of one contiguous shard of test batches (merge-ready)."""

    recorded_steps: np.ndarray
    correct_per_step: np.ndarray
    cumulative_spikes: np.ndarray
    outputs_final: np.ndarray
    num_images: int
    batch_results: List[SimulationResult]


class SNNInferencePipeline:
    """Convert a trained DNN and evaluate coding schemes on a dataset.

    Parameters
    ----------
    model:
        Trained :class:`~repro.ann.model.Sequential` ANN.
    data:
        Train/test split; the train subset provides calibration images for
        weight normalisation, the test subset is what the SNN classifies.
    config:
        Pipeline configuration (see :class:`PipelineConfig`).
    """

    def __init__(
        self,
        model: Sequential,
        data: DataSplit,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.model = model
        self.data = data
        self.config = config or PipelineConfig()
        self._dnn_accuracy: Optional[float] = None
        self._normalization: Optional[NormalizationResult] = None
        # built SNNs are cached per scheme: the conversion and the engine's
        # per-geometry plans/buffers survive across run_scheme calls (state is
        # re-initialised by every run's reset)
        self._snn_cache: Dict[str, SpikingNetwork] = {}

    def __getstate__(self):
        # the SNN cache holds large reusable buffers and strided views; drop
        # it when the pipeline is shipped to shard workers
        state = self.__dict__.copy()
        state["_snn_cache"] = {}
        return state

    # -- cached intermediate results --------------------------------------
    @property
    def dnn_accuracy(self) -> float:
        """Accuracy of the source DNN on the evaluated test images."""
        if self._dnn_accuracy is None:
            x, y = self._test_arrays()
            self._dnn_accuracy = self.model.evaluate(x, y, batch_size=self.config.batch_size)
        return self._dnn_accuracy

    @property
    def normalization(self) -> NormalizationResult:
        """Weight normalisation shared by every coding scheme."""
        if self._normalization is None:
            calibration = self.data.train.x[: self.config.calibration_images]
            conversion = self.config.conversion
            self._normalization = normalize_weights(
                self.model,
                calibration_x=calibration,
                percentile=conversion.percentile,
                method=conversion.normalization,
            )
            logger.info(
                "weight normalisation (%s): %d layers scaled",
                conversion.normalization,
                len(self._normalization.scales),
            )
        return self._normalization

    def _test_arrays(self):
        x = self.data.test.x
        y = self.data.test.y
        if self.config.max_test_images is not None:
            x = x[: self.config.max_test_images]
            y = y[: self.config.max_test_images]
        if x.shape[0] == 0:
            raise ValueError("no test images to evaluate")
        return x, y

    # -- building and running ---------------------------------------------
    def build_snn(self, scheme: HybridCodingScheme) -> SpikingNetwork:
        """Convert the DNN into an SNN configured for ``scheme`` (cached).

        The converted network (and, with it, the engine's per-geometry plans
        and buffers) is reused across ``run_scheme`` calls; ``reset``
        re-initialises all dynamic state on every simulation run.  Networks
        built around a *stochastic* encoder are rebuilt each call instead, so
        every ``run_scheme`` starts from the identically seeded RNG the
        pre-cache pipeline gave it.
        """
        key = repr(scheme)
        cached = self._snn_cache.get(key)
        if cached is not None:
            return cached
        snn = build_network(
            self.model,
            scheme,
            conversion=self.config.conversion,
            normalization=self.normalization,
            seed=self.config.seed,
            name=f"{self.model.name}-{scheme.notation}",
        )
        if getattr(snn.encoder, "deterministic", True):
            self._snn_cache[key] = snn
        return snn

    def _sim_config(self, time_steps: int) -> SimulationConfig:
        config = self.config
        return SimulationConfig(
            time_steps=time_steps,
            record_outputs_every=config.record_outputs_every,
            record_trains=config.record_trains,
            sample_fraction=config.sample_fraction,
            seed=config.seed,
            backend=config.backend,
            early_exit_patience=config.early_exit_patience,
            early_exit_margin=config.early_exit_margin,
        )

    def _simulate_range(
        self,
        snn: SpikingNetwork,
        sim_config: SimulationConfig,
        x: np.ndarray,
        y: np.ndarray,
        start: int,
        stop: int,
        keep_batch_results: bool,
    ) -> _ShardResult:
        """Simulate the image range ``[start, stop)`` batch by batch.

        Every batch is served through one reusable
        :class:`~repro.engine.session.InferenceSession`, so the simulation
        plan and the layers' cached kernel plans/buffers are amortised across
        the range.  The per-range final outputs are written into one
        preallocated array sized from the known image count (instead of an
        ever-growing list of batch arrays), capping peak memory on large test
        sets.
        """
        config = self.config
        time_steps = sim_config.time_steps
        session = InferenceSession(snn, sim_config)
        recorded_steps: Optional[np.ndarray] = None
        correct_per_step: Optional[np.ndarray] = None
        cumulative_spikes = np.zeros(time_steps, dtype=np.float64)
        outputs_final: Optional[np.ndarray] = None
        batch_results: List[SimulationResult] = []
        count = 0

        for batch_start in range(start, stop, config.batch_size):
            batch_stop = min(batch_start + config.batch_size, stop)
            batch_x = x[batch_start:batch_stop]
            batch_y = y[batch_start:batch_stop]
            result = session.run(batch_x, labels=batch_y)
            if recorded_steps is None:
                recorded_steps = result.recorded_steps
                correct_per_step = np.zeros(len(recorded_steps), dtype=np.float64)
                outputs_final = np.empty(
                    (stop - start, result.final_outputs.shape[1]),
                    dtype=result.final_outputs.dtype,
                )
            predicted = result.output_history.argmax(axis=2)
            correct_per_step += (predicted == batch_y[None, :]).sum(axis=1)
            batch_cumulative = result.record.cumulative_spikes()
            if batch_cumulative.size < time_steps:
                # early exit froze the whole batch before the horizon: the
                # cumulative spike count stays flat for the remaining steps
                padded = np.empty(time_steps, dtype=batch_cumulative.dtype)
                padded[: batch_cumulative.size] = batch_cumulative
                padded[batch_cumulative.size :] = (
                    batch_cumulative[-1] if batch_cumulative.size else 0
                )
                batch_cumulative = padded
            cumulative_spikes += batch_cumulative
            outputs_final[count : count + batch_x.shape[0]] = result.final_outputs
            count += batch_x.shape[0]
            if keep_batch_results:
                batch_results.append(result)

        assert recorded_steps is not None and outputs_final is not None
        return _ShardResult(
            recorded_steps=recorded_steps,
            correct_per_step=correct_per_step,
            cumulative_spikes=cumulative_spikes,
            outputs_final=outputs_final,
            num_images=count,
            batch_results=batch_results,
        )

    def _resolve_workers(self, num_batches: int) -> int:
        """Effective worker count, guarding the shard path on 1-CPU machines."""
        return resolve_worker_count(self.config.num_workers, num_batches, log=logger)

    def _shard_ranges(self, num_images: int, workers: int) -> List[Tuple[int, int]]:
        """Split the test range into ``workers`` contiguous whole-batch shards."""
        return shard_ranges(num_images, self.config.batch_size, workers)

    def _simulate_shard(
        self,
        scheme: HybridCodingScheme,
        time_steps: int,
        keep_batch_results: bool,
        start: int,
        stop: int,
    ) -> _ShardResult:
        """Simulate one shard of the test set (worker-process entry point).

        Bound-method pickling ships the pipeline with its normalisation cache
        warm (and the SNN cache dropped, see ``__getstate__``), so the worker
        only converts and simulates.
        """
        snn = self.build_snn(scheme)
        sim_config = self._sim_config(time_steps)
        x, y = self._test_arrays()
        return self._simulate_range(snn, sim_config, x, y, start, stop, keep_batch_results)

    def run_scheme(
        self,
        scheme: HybridCodingScheme,
        time_steps: Optional[int] = None,
        keep_batch_results: bool = False,
    ) -> AggregatedRun:
        """Simulate ``scheme`` over the test set and aggregate the curves.

        With ``PipelineConfig(num_workers > 1)`` the batches are sharded
        across worker processes; the merge is deterministic and identical to
        the sequential result (shards run the same code on the same slices
        and are reduced in shard order).
        """
        config = self.config
        time_steps = time_steps or config.time_steps
        x, y = self._test_arrays()
        num_images = x.shape[0]
        sim_config = self._sim_config(time_steps)
        snn = self.build_snn(scheme)

        num_batches = -(-num_images // config.batch_size)
        workers = self._resolve_workers(num_batches)
        if workers > 1 and not getattr(snn.encoder, "deterministic", True):
            logger.info(
                "scheme %s uses a stochastic encoder; sharding would re-split its "
                "random stream across workers — running sequentially",
                scheme.notation,
            )
            workers = 1
        if workers <= 1:
            shards = [
                self._simulate_range(snn, sim_config, x, y, 0, num_images, keep_batch_results)
            ]
        else:
            # warm the shared caches so every worker inherits them via pickle
            self.dnn_accuracy
            self.normalization
            shards = self._run_sharded(scheme, time_steps, num_images, workers, keep_batch_results)

        recorded_steps = shards[0].recorded_steps
        correct_per_step = np.zeros(len(recorded_steps), dtype=np.float64)
        cumulative_spikes = np.zeros(time_steps, dtype=np.float64)
        outputs_final = np.empty(
            (num_images, shards[0].outputs_final.shape[1]),
            dtype=shards[0].outputs_final.dtype,
        )
        batch_results: List[SimulationResult] = []
        total_images = 0
        for shard in shards:
            correct_per_step += shard.correct_per_step
            cumulative_spikes += shard.cumulative_spikes
            outputs_final[total_images : total_images + shard.num_images] = shard.outputs_final
            batch_results.extend(shard.batch_results)
            total_images += shard.num_images

        accuracy_curve = correct_per_step / total_images
        run = AggregatedRun(
            scheme=scheme.notation,
            recorded_steps=recorded_steps,
            accuracy_curve=accuracy_curve,
            cumulative_spikes=cumulative_spikes,
            time_steps=time_steps,
            num_images=total_images,
            num_neurons=snn.num_neurons(),
            dnn_accuracy=self.dnn_accuracy,
            labels=y[:total_images],
            outputs_final=outputs_final,
            batch_results=batch_results,
        )
        logger.info(
            "scheme %-12s accuracy=%.4f (DNN %.4f) spikes/image=%.1f",
            scheme.notation,
            run.accuracy,
            self.dnn_accuracy,
            run.spikes_per_image,
        )
        return run

    def _run_sharded(
        self,
        scheme: HybridCodingScheme,
        time_steps: int,
        num_images: int,
        workers: int,
        keep_batch_results: bool,
    ) -> List[_ShardResult]:
        """Fan the shards out via the engine's orchestration layer.

        Each worker runs the sequential code path on its shard, so the merged
        result is deterministic and identical to the sequential run.
        """
        ranges = self._shard_ranges(num_images, workers)
        logger.info(
            "sharding %d images over %d workers (%d shards)",
            num_images, workers, len(ranges),
        )
        worker = functools.partial(
            self._simulate_shard, scheme, time_steps, keep_batch_results
        )
        return run_sharded(worker, ranges, workers)

    def compare(
        self,
        schemes: Sequence[HybridCodingScheme],
        target_accuracy: Optional[float] = None,
        time_steps: Optional[int] = None,
    ) -> Dict[str, InferenceMetrics]:
        """Evaluate several schemes and return one metrics row per scheme."""
        results: Dict[str, InferenceMetrics] = {}
        for scheme in schemes:
            run = self.run_scheme(scheme, time_steps=time_steps)
            results[scheme.notation] = run.metrics(target_accuracy=target_accuracy)
        return results
