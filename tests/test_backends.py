"""Backend registry, resolution and cross-backend parity (golden suite).

Four layers of guarantees:

* the registry plumbing — registration, did-you-mean errors, env var /
  override / explicit-config resolution order, clean unavailability of
  optional backends (torch without PyTorch installed);
* the **parity matrix** — every *available* registered backend, across coding
  schemes × dtypes on a trained CNN workload, classifies identically to the
  numpy reference backend (spike counts within the engine's documented
  tolerance); unavailable backends are skipped, never failed;
* **reference bit-identity** — the numpy backend (resolved explicitly) is
  bit-for-bit the engine default, in both dtypes, so the seed golden
  reference (``benchmarks/perf/seed_reference.json``, enforced by
  ``tests/test_dtype_policy.py``) pins this backend's float64 outputs;
* the **seam contract** — each neuron layer's step routes its GEMM, its IF
  update and its burst-threshold update through its backend (``self.ops``),
  which is all a backend such as torch needs to override.
"""

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailableError,
    UnknownBackendError,
    backend_metadata,
    backend_names,
    backend_scope,
    default_backend_name,
    get_backend,
    resolve_backend,
    set_default_backend,
)
from repro.backends.base import KernelBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.conversion.converter import convert_to_snn
from repro.core.hybrid import HybridCodingScheme
from repro.engine.plan import plan_simulation
from repro.engine.run import execute
from repro.snn.network import SimulationConfig

#: the schemes the parity matrix exercises: the paper's proposal (conv sparse
#: paths + burst dynamics) and the real-input variant (dense-heavy drive)
PARITY_SCHEMES = ("phase-burst", "real-burst")
PARITY_DTYPES = ("float32", "float64")


def _available_backends():
    return [row["backend"] for row in backend_metadata() if row["available"]]


def _unavailable_backends():
    return [row for row in backend_metadata() if not row["available"]]


@pytest.fixture(scope="module")
def parity_snn_factory(trained_cnn, tiny_color_split):
    """Build a converted SNN for a scheme (shared weights via the fixture)."""

    def build(notation: str):
        scheme = HybridCodingScheme.from_notation(notation, v_th=0.125)
        return convert_to_snn(
            trained_cnn,
            encoder=scheme.make_encoder(seed=0),
            threshold_factory=scheme.make_threshold_factory(),
            calibration_x=tiny_color_split.train.x[:24],
        )

    return build


class TestBackendRegistry:
    def test_numpy_backends_always_available(self):
        names = backend_names()
        assert "numpy" in names and "torch" in names
        assert "numpy" in _available_backends()

    def test_resolution_is_cached_singleton(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")
        assert isinstance(resolve_backend("numpy"), KernelBackend)

    def test_unknown_backend_did_you_mean(self):
        with pytest.raises(UnknownBackendError, match="did you mean 'numpy'"):
            resolve_backend("numpyy")

    def test_instance_passthrough(self):
        instance = resolve_backend("numpy")
        assert resolve_backend(instance) is instance

    def test_default_resolution_order(self, monkeypatch, alt_backend):
        # 4) project default
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy"
        # 3) environment variable
        monkeypatch.setenv("REPRO_BACKEND", alt_backend)
        assert default_backend_name() == alt_backend
        assert resolve_backend().name == alt_backend
        # 2) process-wide override beats the env var
        try:
            set_default_backend("numpy")
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(None)
        # the context-manager form restores on exit
        with backend_scope("numpy") as backend:
            assert backend.name == "numpy"
            assert resolve_backend().name == "numpy"
        assert default_backend_name() == alt_backend

    def test_simulation_config_validates_backend(self, alt_backend):
        SimulationConfig(backend=alt_backend)
        SimulationConfig(backend=None)
        with pytest.raises(ValueError, match="did you mean"):
            SimulationConfig(backend="nmpy")

    def test_unavailable_backend_reports_cleanly(self):
        for row in _unavailable_backends():
            assert row["error"], f"{row['backend']} must explain its unavailability"
            with pytest.raises(BackendUnavailableError):
                get_backend(row["backend"])

    def test_metadata_lists_every_registration(self):
        rows = backend_metadata()
        assert [row["backend"] for row in rows] == backend_names()
        defaults = [row for row in rows if row["default"]]
        assert len(defaults) == 1 and defaults[0]["backend"] == "numpy"


class TestBackendParity:
    """Golden suite: prediction agreement across backends × schemes × dtypes."""

    @pytest.mark.parametrize("notation", PARITY_SCHEMES)
    @pytest.mark.parametrize("dtype", PARITY_DTYPES)
    def test_backends_agree_with_reference(
        self, parity_snn_factory, tiny_color_split, notation, dtype
    ):
        x = tiny_color_split.test.x[:8]
        config = SimulationConfig(time_steps=50, dtype=dtype, backend="numpy")
        snn = parity_snn_factory(notation)
        reference = snn.run(x, config)
        ref_predictions = reference.predictions()
        ref_spikes = reference.total_spikes()
        assert ref_spikes > 0
        for row in backend_metadata():
            if row["backend"] == "numpy":
                continue
            if not row["available"]:
                # graceful skip is part of the contract — record, don't fail
                continue
            result = snn.run(x, config.replace(backend=row["backend"]))
            assert np.array_equal(result.predictions(), ref_predictions), (
                f"{row['backend']} backend diverged from numpy predictions "
                f"({notation}, {dtype})"
            )
            spikes = result.total_spikes()
            assert abs(spikes - ref_spikes) <= max(5, 0.01 * ref_spikes), (
                f"{row['backend']} spike count drifted ({notation}, {dtype}): "
                f"{spikes} vs {ref_spikes}"
            )

    def test_unavailable_backend_is_skipped_not_run(self, parity_snn_factory, tiny_color_split):
        """Resolving an unavailable backend fails fast with a clean error."""
        rows = _unavailable_backends()
        if not rows:
            pytest.skip("every registered backend is available here")
        snn = parity_snn_factory("phase-burst")
        config = SimulationConfig(time_steps=5, backend=rows[0]["backend"])
        with pytest.raises(BackendUnavailableError):
            snn.run(tiny_color_split.test.x[:2], config)


class TestNumpyReferenceBitIdentity:
    """The explicitly resolved numpy backend IS the engine default, bit for bit.

    Together with ``tests/test_dtype_policy.py`` (which pins the default
    engine's float64 outputs to ``benchmarks/perf/seed_reference.json``),
    this keeps the numpy backend's float64 output bit-identical to the seed.
    """

    @pytest.mark.parametrize("dtype", PARITY_DTYPES)
    def test_explicit_numpy_equals_default(self, parity_snn_factory, tiny_color_split, dtype):
        x = tiny_color_split.test.x[:6]
        snn = parity_snn_factory("phase-burst")
        default = snn.run(x, SimulationConfig(time_steps=40, dtype=dtype))
        explicit = snn.run(x, SimulationConfig(time_steps=40, dtype=dtype, backend="numpy"))
        assert np.array_equal(default.output_history, explicit.output_history)
        assert default.total_spikes() == explicit.total_spikes()

    def test_numpy_float64_runs_are_bit_deterministic(self, parity_snn_factory, tiny_color_split):
        x = tiny_color_split.test.x[:6]
        snn = parity_snn_factory("real-burst")
        config = SimulationConfig(time_steps=40, dtype="float64", backend="numpy")
        a = snn.run(x, config)
        b = snn.run(x, config)
        assert np.array_equal(a.output_history, b.output_history)


class CountingBackend(NumpyBackend):
    """The numpy kernels, counting every call of the seam-contract primitives."""

    name = "numpy-counting"
    COUNTED = ("matmul", "if_step", "burst_grow", "burst_commit_signals")

    def __init__(self) -> None:
        self.calls = dict.fromkeys(self.COUNTED, 0)

    def matmul(self, a, b, out):
        self.calls["matmul"] += 1
        return super().matmul(a, b, out)

    def if_step(self, *args):
        self.calls["if_step"] += 1
        return super().if_step(*args)

    def burst_grow(self, *args):
        self.calls["burst_grow"] += 1
        return super().burst_grow(*args)

    def burst_commit_signals(self, *args):
        self.calls["burst_commit_signals"] += 1
        return super().burst_commit_signals(*args)


class TestSeamContract:
    """Each neuron layer's one step body runs its kernels on ``self.ops``.

    This is what lets a backend (torch) take over the hot path by overriding
    primitives only.  Float64 keeps every layer on the dense GEMM path, and
    an input strong enough to make every neuron fire keeps the burst update
    off its silent-step shortcut, so each step makes exactly one call of
    each counted primitive.
    """

    @staticmethod
    def _layers():
        from repro.snn.layers import SpikingConv2D, SpikingDense
        from repro.snn.thresholds import BurstThreshold

        rng = np.random.default_rng(9)
        dense = SpikingDense(
            np.abs(rng.normal(size=(12, 6))), None, BurstThreshold(v_th=0.125), name="dense"
        )
        conv = SpikingConv2D(
            np.abs(rng.normal(size=(3, 2, 3, 3))), None, BurstThreshold(v_th=0.125),
            padding=1, input_shape=(2, 5, 5), name="conv",
        )
        return [(dense, np.ones((2, 12))), (conv, np.ones((2, 2, 5, 5)))]

    def test_neuron_layer_step_routes_kernels_through_ops(self):
        steps = 5
        for layer, x in self._layers():
            backend = CountingBackend()
            layer.reset(x.shape[0], dtype="float64", backend=backend)
            for t in range(steps):
                layer.step(x, t, int(np.count_nonzero(x)))
                assert layer.output_nonzero == layer.state.num_neurons * x.shape[0]
            assert backend.calls == dict.fromkeys(CountingBackend.COUNTED, steps), (
                f"{layer.name}: {backend.calls}"
            )

    @pytest.mark.parametrize("notation", PARITY_SCHEMES)
    def test_float64_outputs_match_numpy(self, parity_snn_factory, tiny_color_split, notation):
        x = tiny_color_split.test.x[:4]
        snn = parity_snn_factory(notation)
        config = SimulationConfig(time_steps=30, dtype="float64")
        reference = snn.run(x, config.replace(backend="numpy"))
        backend = CountingBackend()
        plan = plan_simulation(snn, config)
        plan.backend = backend
        counted = execute(plan.prepare(x))
        assert np.array_equal(reference.output_history, counted.output_history)
        assert reference.total_spikes() == counted.total_spikes()
        neuron_layers = sum(layer.is_spiking for layer in snn.layers)
        assert backend.calls["if_step"] == neuron_layers * config.time_steps
        assert backend.calls["matmul"] > 0 and backend.calls["burst_grow"] > 0


class TestBackendSwitchInvalidation:
    def test_dense_buffers_rebuilt_on_backend_switch(self, alt_backend):
        from repro.snn.layers import SpikingDense
        from repro.snn.thresholds import BurstThreshold

        rng = np.random.default_rng(1)
        layer = SpikingDense(rng.normal(size=(16, 8)), None, BurstThreshold(v_th=0.125))
        layer.reset(4, dtype="float32", backend="numpy")
        z_numpy, state_numpy = layer._z, layer.state
        # same backend, same geometry: buffers and neuron state are reused
        layer.reset(4, dtype="float32", backend="numpy")
        assert layer._z is z_numpy and layer.state is state_numpy
        # backend switch: everything the old backend built is rebuilt
        layer.reset(4, dtype="float32", backend=alt_backend)
        assert layer.backend_changed
        assert layer._z is not z_numpy and layer.state is not state_numpy
        assert layer.ops.name == alt_backend

    def test_conv_plans_rebuilt_on_backend_switch(self, alt_backend):
        from repro.snn.layers import SpikingConv2D
        from repro.snn.thresholds import BurstThreshold

        rng = np.random.default_rng(2)
        layer = SpikingConv2D(
            rng.normal(scale=0.1, size=(4, 3, 3, 3)), None,
            BurstThreshold(v_th=0.125), padding=1, input_shape=(3, 8, 8),
        )
        layer.reset(2, dtype="float32", backend="numpy")
        x = np.asarray(rng.random((2, 3, 8, 8)) < 0.4, dtype=np.float32) * 0.125
        layer.step(x, 0)
        plan_numpy = layer._plan or layer._direct
        layer.reset(2, dtype="float32", backend=alt_backend)
        layer.step(x, 0)
        assert (layer._plan or layer._direct) is not plan_numpy

    def test_switching_backends_preserves_results(
        self, parity_snn_factory, tiny_color_split, alt_backend
    ):
        """numpy → alt → numpy on one network: the final numpy run must be
        bit-identical to the first (no stale cross-backend state)."""
        x = tiny_color_split.test.x[:4]
        snn = parity_snn_factory("phase-burst")
        config = SimulationConfig(time_steps=30, dtype="float64")
        first = snn.run(x, config.replace(backend="numpy"))
        snn.run(x, config.replace(backend=alt_backend))
        again = snn.run(x, config.replace(backend="numpy"))
        assert np.array_equal(first.output_history, again.output_history)
        assert first.total_spikes() == again.total_spikes()
