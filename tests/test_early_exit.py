"""Converged-image early exit (``SimulationConfig(early_exit_patience=...)``).

The engine freezes images whose output argmax has been stable for the
patience window, compacting every layer's state to the surviving batch rows.
These tests pin the semantics: complete output curves (frozen images repeat
their converged scores), reduced spike counts, unchanged default behaviour,
and state-carrying correctness of ``shrink_batch`` across the layer stack.
"""

import numpy as np
import pytest

from repro.conversion.converter import convert_to_snn
from repro.core.hybrid import HybridCodingScheme
from repro.snn.network import SimulationConfig


@pytest.fixture(scope="module")
def converted_snn(trained_cnn, tiny_color_split):
    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=0.125)
    return convert_to_snn(
        trained_cnn,
        encoder=scheme.make_encoder(seed=0),
        threshold_factory=scheme.make_threshold_factory(),
        calibration_x=tiny_color_split.train.x[:24],
    )


@pytest.fixture(scope="module")
def test_batch(tiny_color_split):
    return tiny_color_split.test.x[:8], tiny_color_split.test.y[:8]


def test_patience_validation():
    SimulationConfig(early_exit_patience=5)
    SimulationConfig(early_exit_patience=None)
    with pytest.raises(ValueError):
        SimulationConfig(early_exit_patience=0)
    with pytest.raises(ValueError):
        SimulationConfig(early_exit_patience=-3)


def test_default_off_is_unchanged(converted_snn, test_batch):
    """Without patience the engine must behave exactly as before (and report
    no freeze bookkeeping)."""
    x, y = test_batch
    result = converted_snn.run(x, SimulationConfig(time_steps=40), labels=y)
    assert result.frozen_at is None
    again = converted_snn.run(x, SimulationConfig(time_steps=40), labels=y)
    assert np.array_equal(result.output_history, again.output_history)
    assert result.total_spikes() == again.total_spikes()


def test_early_exit_freezes_and_saves_spikes(converted_snn, test_batch):
    x, y = test_batch
    dense = converted_snn.run(x, SimulationConfig(time_steps=80), labels=y)
    fast = converted_snn.run(
        x, SimulationConfig(time_steps=80, early_exit_patience=15), labels=y
    )
    assert fast.frozen_at is not None and fast.frozen_at.shape == (x.shape[0],)
    assert (fast.frozen_at > 0).any(), "no image converged on this easy task?"
    assert fast.total_spikes() < dense.total_spikes()
    # curves stay complete and the final predictions agree with the dense run
    assert fast.output_history.shape == dense.output_history.shape
    assert np.array_equal(fast.predictions(), dense.predictions())


def test_frozen_scores_repeat(converted_snn, test_batch):
    x, y = test_batch
    result = converted_snn.run(
        x, SimulationConfig(time_steps=60, early_exit_patience=12), labels=y
    )
    steps = result.recorded_steps
    for image, frozen_step in enumerate(result.frozen_at):
        if frozen_step <= 0:
            continue
        frozen_records = np.flatnonzero(steps >= frozen_step)
        scores = result.output_history[frozen_records, image, :]
        assert np.array_equal(scores, np.broadcast_to(scores[0], scores.shape)), (
            f"image {image}: scores changed after freezing at step {frozen_step}"
        )


def test_early_exit_is_deterministic(converted_snn, test_batch):
    x, y = test_batch
    config = SimulationConfig(time_steps=50, early_exit_patience=10)
    a = converted_snn.run(x, config, labels=y)
    b = converted_snn.run(x, config, labels=y)
    assert np.array_equal(a.output_history, b.output_history)
    assert np.array_equal(a.frozen_at, b.frozen_at)
    assert a.total_spikes() == b.total_spikes()


def test_trains_recorded_with_early_exit(converted_snn, test_batch):
    """Sampled spike trains keep their full (T, batch, n) shape; frozen
    images simply stop spiking."""
    x, y = test_batch
    result = converted_snn.run(
        x,
        SimulationConfig(time_steps=50, early_exit_patience=10, record_trains=True),
        labels=y,
    )
    assert (result.frozen_at > 0).any()
    for record in result.record.layers:
        if not record.is_spiking or record.sampled_indices is None:
            continue
        trains = record.spike_trains()
        if trains.size == 0:
            continue
        assert trains.shape[1] == x.shape[0]
        for image, frozen_step in enumerate(result.frozen_at):
            if frozen_step <= 0:
                continue
            assert not trains[frozen_step:, image, :].any(), (
                f"{record.name}: image {image} spiked after freezing"
            )


def test_all_images_frozen_stops_early(converted_snn, test_batch):
    """With an aggressive patience every image freezes and the recorded spike
    activity ends before the time budget, while curves stay complete."""
    x, y = test_batch
    result = converted_snn.run(
        x, SimulationConfig(time_steps=200, early_exit_patience=5), labels=y
    )
    assert (result.frozen_at > 0).all()
    assert result.record.time_steps < 200
    assert result.output_history.shape[0] == 200


def test_accuracy_preserved_with_generous_patience(converted_snn, test_batch):
    x, y = test_batch
    dense = converted_snn.run(x, SimulationConfig(time_steps=80), labels=y)
    fast = converted_snn.run(
        x, SimulationConfig(time_steps=80, early_exit_patience=25), labels=y
    )
    assert fast.accuracy() == pytest.approx(dense.accuracy(), abs=1.0 / x.shape[0])


# -- adaptive early exit (``early_exit_margin``) -----------------------------

def test_margin_validation():
    SimulationConfig(early_exit_patience=5, early_exit_margin=0.05)
    with pytest.raises(ValueError, match="requires early_exit_patience"):
        SimulationConfig(early_exit_margin=0.05)
    with pytest.raises(ValueError):
        SimulationConfig(early_exit_patience=5, early_exit_margin=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(early_exit_patience=5, early_exit_margin=-0.1)


def test_margin_off_is_identical_to_patience_only(converted_snn, test_batch):
    """``early_exit_margin=None`` must leave the fixed-count criterion (and
    therefore every output and spike) exactly as before."""
    x, y = test_batch
    base = converted_snn.run(
        x, SimulationConfig(time_steps=80, early_exit_patience=15), labels=y
    )
    again = converted_snn.run(
        x,
        SimulationConfig(time_steps=80, early_exit_patience=15, early_exit_margin=None),
        labels=y,
    )
    assert np.array_equal(base.output_history, again.output_history)
    assert np.array_equal(base.frozen_at, again.frozen_at)
    assert base.total_spikes() == again.total_spikes()


def test_margin_freezes_no_earlier_than_argmax_only(converted_snn, test_batch):
    """The margin criterion is a *conjunction* with argmax stability, so each
    image freezes at the same step or later (never earlier)."""
    x, y = test_batch
    argmax_only = converted_snn.run(
        x, SimulationConfig(time_steps=80, early_exit_patience=10), labels=y
    )
    confident = converted_snn.run(
        x,
        SimulationConfig(time_steps=80, early_exit_patience=10, early_exit_margin=1e-6),
        labels=y,
    )
    for base_step, margin_step in zip(argmax_only.frozen_at, confident.frozen_at):
        effective_base = base_step if base_step > 0 else 81
        effective_margin = margin_step if margin_step > 0 else 81
        assert effective_margin >= effective_base


def test_unreachable_margin_never_freezes(converted_snn, test_batch):
    """A margin no per-step score gap can reach disables freezing entirely,
    reproducing the dense run step for step."""
    x, y = test_batch
    dense = converted_snn.run(x, SimulationConfig(time_steps=60), labels=y)
    gated = converted_snn.run(
        x,
        SimulationConfig(time_steps=60, early_exit_patience=5, early_exit_margin=1e9),
        labels=y,
    )
    assert (gated.frozen_at == -1).all()
    assert np.array_equal(dense.output_history, gated.output_history)
    assert dense.total_spikes() == gated.total_spikes()


def test_margin_curves_stay_complete(converted_snn, test_batch):
    x, y = test_batch
    result = converted_snn.run(
        x,
        SimulationConfig(time_steps=120, early_exit_patience=8, early_exit_margin=1e-4),
        labels=y,
    )
    assert result.output_history.shape[0] == 120
    frozen = result.frozen_at
    assert frozen is not None
    # frozen images repeat their converged scores for the rest of the run
    for image, step in enumerate(frozen):
        if step <= 0:
            continue
        converged = result.output_history[step - 1, image]
        assert np.array_equal(result.output_history[-1, image], converged)


# -- mid-run shrinks ----------------------------------------------------------
#
# Early exit shrinks every layer's per-batch buffers mid-simulation; the next
# step must run on the rebuilt buffers (the original bug: steps kept writing
# through stale pre-shrink views).


def test_aggressive_patience_repeated_shrinks(converted_snn, test_batch):
    """Aggressive patience forces repeated shrinks; predictions must still
    match the dense (never-shrinking) run."""
    x, y = test_batch
    shrunk = converted_snn.run(
        x, SimulationConfig(time_steps=200, early_exit_patience=5), labels=y
    )
    assert (shrunk.frozen_at > 0).all(), "patience=5 must freeze every image"
    dense = converted_snn.run(x, SimulationConfig(time_steps=200), labels=y)
    assert np.array_equal(shrunk.predictions(), dense.predictions())


def test_early_exit_sharded_evaluation(trained_cnn, tiny_color_split, monkeypatch):
    """early_exit_patience + sharded evaluation: the merged sharded run
    equals the sequential one, shrink included."""
    from repro.core.pipeline import PipelineConfig, SNNInferencePipeline

    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=0.125)

    def build(num_workers):
        return SNNInferencePipeline(
            trained_cnn,
            tiny_color_split,
            PipelineConfig(
                time_steps=40,
                batch_size=4,
                max_test_images=8,
                early_exit_patience=5,
                num_workers=num_workers,
                seed=0,
            ),
        )

    sequential = build(None).run_scheme(scheme)
    monkeypatch.setenv("REPRO_FORCE_SHARDING", "1")
    sharded = build(2).run_scheme(scheme)
    assert np.array_equal(sequential.outputs_final, sharded.outputs_final)
    assert np.array_equal(sequential.accuracy_curve, sharded.accuracy_curve)
    assert sequential.total_spikes == sharded.total_spikes


def test_margin_through_pipeline_config(trained_cnn, tiny_color_split):
    """The adaptive criterion threads PipelineConfig → SimulationConfig."""
    from repro.core.pipeline import PipelineConfig, SNNInferencePipeline

    with pytest.raises(ValueError, match="requires early_exit_patience"):
        PipelineConfig(early_exit_margin=0.1)
    pipeline = SNNInferencePipeline(
        trained_cnn,
        tiny_color_split,
        PipelineConfig(
            time_steps=40,
            batch_size=8,
            max_test_images=8,
            early_exit_patience=8,
            early_exit_margin=1e-5,
        ),
    )
    run = pipeline.run_scheme(
        HybridCodingScheme.from_notation("phase-burst", v_th=0.125),
        keep_batch_results=True,
    )
    assert all(result.frozen_at is not None for result in run.batch_results)
