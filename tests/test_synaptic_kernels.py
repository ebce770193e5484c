"""The synaptic layers' two static kernel paths: empty and dense.

Every synaptic layer picks its kernel per step from geometry and dtype
alone (see :mod:`repro.snn.layers`):

* **empty** — an all-zero incoming step (producer count 0, or a scan when no
  count is supplied) returns the precomputed bias response, exactly;
* **dense** — one GEMM for ``SpikingDense``; for ``SpikingConv2D`` the
  stride-1 float32 ``DirectConvPlan``, else the canonical im2col + GEMM.

These tests pin both paths down, plus the pooling layers' empty shortcut and
the cross-process determinism that follows from timing nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ann.im2col import im2col
from repro.snn.layers import (
    SpikingAvgPool2D,
    SpikingConv2D,
    SpikingDense,
    SpikingMaxPool2D,
)
from repro.snn.thresholds import BurstThreshold

DTYPES = ["float32", "float64"]
#: activity levels: empty-spike step, partial activity, full activity
ACTIVITIES = [0.0, 0.3, 1.0]
CONV_SHAPE = (8, 10, 10)


def _spikes(rng, shape, activity, dtype):
    """Spike amplitudes (0.125) at roughly ``activity`` of the positions."""
    return np.asarray((rng.random(shape) < activity) * 0.125, dtype=dtype)


def _dense_layer(dtype, batch=6):
    rng = np.random.default_rng(3)
    layer = SpikingDense(
        rng.normal(scale=0.2, size=(40, 12)),
        rng.normal(scale=0.05, size=12),
        BurstThreshold(v_th=0.125),
    )
    layer.reset(batch, dtype=dtype)
    return layer


def _conv_layer(dtype, batch=4, stride=1):
    rng = np.random.default_rng(5)
    layer = SpikingConv2D(
        rng.normal(scale=0.2, size=(6, CONV_SHAPE[0], 3, 3)),
        rng.normal(scale=0.05, size=6),
        BurstThreshold(v_th=0.125),
        stride=stride,
        padding=1,
        input_shape=CONV_SHAPE,
    )
    layer.reset(batch, dtype=dtype)
    return layer


def _zeros_for(kind, dtype):
    shape = (6, 40) if kind == "dense" else (4,) + CONV_SHAPE
    return np.zeros(shape, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["dense", "conv"])
@pytest.mark.parametrize("count", [0, None], ids=["count0", "scan"])
def test_empty_shortcut_is_exact(dtype, kind, count):
    """An all-zero step returns exactly what the dense kernel computes for
    zeros — the bias response — whether the producer reports a count of 0 or
    the layer scans its input."""
    layer = _dense_layer(dtype) if kind == "dense" else _conv_layer(dtype)
    zeros = _zeros_for(kind, dtype)
    shortcut = np.array(layer._synaptic_input(zeros, count))
    assert shortcut.dtype == np.dtype(dtype)
    assert np.array_equal(shortcut, np.array(layer._dense_input(zeros)))
    bias = layer._scaled_bias if kind == "dense" else layer._scaled_bias[:, None, None]
    assert np.array_equal(shortcut, np.broadcast_to(bias, shortcut.shape))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_nonzero_step_runs_dense_kernel(dtype, kind):
    """A nonzero step runs the dense kernel, with or without a count."""
    layer = _dense_layer(dtype) if kind == "dense" else _conv_layer(dtype)
    x = _spikes(np.random.default_rng(7), _zeros_for(kind, dtype).shape, 0.3, dtype)
    dense = np.array(layer._dense_input(x))
    assert np.array_equal(np.array(layer._synaptic_input(x)), dense)
    count = int(np.count_nonzero(x))
    assert np.array_equal(np.array(layer._synaptic_input(x, count)), dense)


def _canonical_conv(layer, x):
    """Independent canonical conv: one-shot im2col + GEMM + bias."""
    cols, out_h, out_w = im2col(
        x.astype(np.float64), layer.kernel_size, layer.kernel_size, layer.stride, layer.padding
    )
    z = cols @ layer.weight.reshape(layer.out_channels, -1).T + layer.bias_scale * layer.bias
    return z.reshape(x.shape[0], out_h, out_w, layer.out_channels).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("activity", ACTIVITIES)
def test_float32_direct_plan_matches_canonical(activity):
    """Stride-1 float32 conv runs the direct plan, which agrees with the
    canonical im2col pipeline to float32 rounding."""
    layer = _conv_layer("float32")
    x = _spikes(np.random.default_rng(21), (4,) + CONV_SHAPE, activity, "float32")
    z = np.array(layer._synaptic_input(x))
    if activity > 0.0:
        assert layer._direct is not None and layer._plan is None
    assert np.allclose(z, layer._canonical_input(x), rtol=1e-5, atol=1e-6)
    assert np.allclose(z, _canonical_conv(layer, x), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("activity", ACTIVITIES)
def test_float64_conv_is_bit_identical_to_canonical(activity):
    """Float64 conv stays on the canonical pipeline, bit for bit."""
    layer = _conv_layer("float64")
    x = _spikes(np.random.default_rng(31), (4,) + CONV_SHAPE, activity, "float64")
    z = np.array(layer._synaptic_input(x))
    assert layer._direct is None
    assert np.array_equal(z, _canonical_conv(layer, x))


def test_strided_conv_runs_canonical():
    """The direct plan is stride-1 only: a strided float32 conv runs the
    canonical pipeline."""
    layer = _conv_layer("float32", batch=2, stride=2)
    x = _spikes(np.random.default_rng(32), (2,) + CONV_SHAPE, 0.3, "float32")
    z = np.array(layer._synaptic_input(x))
    assert layer._direct is None and layer._plan is not None
    assert np.array_equal(z, np.array(layer._canonical_input(x)))
    assert np.allclose(z, _canonical_conv(layer, x), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pool_cls", [SpikingAvgPool2D, SpikingMaxPool2D])
class TestPoolingShortcut:
    def test_empty_and_full_steps(self, dtype, pool_cls):
        """Interleaving empty steps changes nothing: an empty step pools to
        exact zeros, and each full step gives the output of a layer that
        only ever saw the full steps."""
        rng = np.random.default_rng(41)
        x = _spikes(rng, (3, 4, 8, 8), 0.5, dtype)
        shortcut = pool_cls(2)
        full_only = pool_cls(2)
        shortcut.reset(3, dtype=dtype)
        full_only.reset(3, dtype=dtype)
        for t, frame in enumerate([x, np.zeros_like(x), x, np.zeros_like(x)]):
            out = np.array(shortcut.step(frame, t))
            if t % 2:
                assert not out.any() and not np.signbit(out).any()
            else:
                assert np.array_equal(out, np.array(full_only.step(frame, t)))

    def test_hinted_count_matches_scan(self, dtype, pool_cls):
        """Passing the producer's exact nonzero count must not change results."""
        rng = np.random.default_rng(42)
        x = _spikes(rng, (2, 4, 8, 8), 0.3, dtype)
        hinted = pool_cls(2)
        scanned = pool_cls(2)
        hinted.reset(2, dtype=dtype)
        scanned.reset(2, dtype=dtype)
        count = int(np.count_nonzero(x))
        for t, frame in enumerate([x, np.zeros_like(x)]):
            frame_count = count if t == 0 else 0
            out_hinted = np.array(hinted.step(frame, t, incoming_nonzero=frame_count))
            out_scanned = np.array(scanned.step(frame, t))
            assert np.array_equal(out_hinted, out_scanned)


_CHILD = """
import hashlib, json, sys
import numpy as np
from repro.core.hybrid import HybridCodingScheme
from repro.data.dataset import train_test_split
from repro.data.synthetic import SyntheticImageConfig, make_classification_images
from repro.engine.build import build_network
from repro.models.cnn import build_small_cnn
from repro.snn.network import SimulationConfig

config = SyntheticImageConfig(num_classes=3, image_shape=(3, 10, 10), samples_per_class=8)
data = train_test_split(make_classification_images(config, seed=11), test_fraction=0.25, seed=11)
model = build_small_cnn(data.input_shape, data.num_classes, seed=5)
snn = build_network(
    model, HybridCodingScheme.from_notation("phase-burst"), calibration_x=data.train.x[:16]
)
result = snn.run(data.test.x[:6], SimulationConfig(time_steps=40, dtype="float32"))
print(json.dumps({
    "dtype": str(result.output_history.dtype),
    "hash": hashlib.sha256(np.ascontiguousarray(result.output_history).tobytes()).hexdigest(),
    "spikes": int(result.total_spikes()),
    "scipy": "scipy" in sys.modules,
}))
"""


def _run_child() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_float32_outputs_repeat_across_processes_without_scipy():
    """Two fresh processes running the same float32 phase-burst conv SNN
    produce the same output hash, and neither imports scipy."""
    first, second = _run_child(), _run_child()
    assert first["dtype"] == "float32"
    assert first["spikes"] > 0
    assert (first["hash"], first["spikes"]) == (second["hash"], second["spikes"])
    assert not first["scipy"] and not second["scipy"]
