"""Step-driven traced replay of one prepared batch, and the per-layer numbers
derived from it.

The engine runs a batch as a whole-network block program, which no span can
see into.  The traced run therefore drives the same prepared batch through
the public per-step calls, ``encoder.step`` and each layer's ``step``, with
a span around each, and repeats the early-exit freezes of an untraced run of
the same batch by calling ``shrink_batch`` at the steps where its
``frozen_at`` says images froze.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

import numpy as np

from common import Outcome, Tracer


def step_driven(
    prepared, tracer: Tracer, spikes: Counter, frozen_at: Optional[np.ndarray] = None
) -> np.ndarray:
    """Run ``prepared`` step by step under spans; add each spiking layer's
    spikes (and the input's, under ``"input"``) to ``spikes``.

    Returns the final output scores per image of the batch (a frozen image
    keeps the scores it had when it froze).
    """
    plan = prepared.plan
    network = plan.network
    encoder = network.encoder
    layers = network.layers
    horizon = plan.config.time_steps
    tracks_spikes = getattr(encoder, "values_nonzero_tracks_spikes", False)
    active = np.arange(prepared.batch_size)
    final = np.zeros((prepared.batch_size, network.num_classes))
    for t in range(horizon):
        with tracer.span("snn.encoder.step"):
            encoded = encoder.step(t)
        count = encoded.spike_count
        spikes["input"] += count
        values = encoded.values
        hint = count if tracks_spikes else None
        for layer in layers:
            layer.output_nonzero = None
            with tracer.span(f"snn.{layer.name}.step"):
                values = layer.step(values, t, hint)
            hint = layer.output_nonzero
            if layer.is_spiking:
                spikes[layer.name] += hint if hint is not None else layer.spike_count()
        final[active] = network.output_layer.logits
        if frozen_at is None or t + 1 >= horizon:
            continue
        frozen = frozen_at[active] == t + 1
        if frozen.any():
            keep = np.flatnonzero(~frozen)
            if keep.size == 0:
                break
            with tracer.span("snn.shrink_batch"):
                encoder.shrink_batch(keep)
                for layer in layers:
                    layer.shrink_batch(keep)
            active = active[keep]
    return final


def layer_metrics(
    outcome: Outcome, tracer: Tracer, network, spikes: Counter, images: int
) -> None:
    """Per-layer busy time and spikes per image from a step-driven replay."""
    outcome.put("snn.encoder.busy_s", tracer.total("snn.encoder.step"), "s")
    outcome.put("snn.input.spikes_per_image", spikes["input"] / images, "spikes")
    for layer in network.layers:
        outcome.put(f"snn.{layer.name}.busy_s", tracer.total(f"snn.{layer.name}.step"), "s")
        if layer.is_spiking:
            outcome.put(
                f"snn.{layer.name}.spikes_per_image", spikes[layer.name] / images, "spikes"
            )


def step_busy_s(tracer: Tracer) -> float:
    """Total time inside ``encoder.step`` and every layer ``step`` span."""
    return sum(
        s.seconds for s in tracer.spans if s.name.startswith("snn.") and s.name.endswith(".step")
    )


def kernel_choices() -> Dict[str, Dict[str, object]]:
    """The timing-probed kernel choices this process made (keys stringified)."""
    from repro.ann.im2col import direct_engine_cache_snapshot
    from repro.utils.sparsity import calibration_cache_snapshot

    return {
        "sparsity_crossovers": {
            repr(key): value for key, value in calibration_cache_snapshot().items()
        },
        "direct_conv_engines": {
            repr(key): value for key, value in direct_engine_cache_snapshot().items()
        },
    }


def kernel_counts(outcome: Outcome) -> Dict[str, Dict[str, object]]:
    choices = kernel_choices()
    outcome.put("im2col.engine_probes", len(choices["direct_conv_engines"]), "count")
    outcome.put("sparsity.calibrations", len(choices["sparsity_crossovers"]), "count")
    return choices
