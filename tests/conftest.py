"""Shared fixtures for the test suite.

Expensive artefacts (synthetic datasets, trained tiny models) are
session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.optimizers import Adam
from repro.data.synthetic import SyntheticImageConfig, make_classification_images
from repro.data.dataset import DataSplit, train_test_split
from repro.models.cnn import build_small_cnn
from repro.models.mlp import build_mlp


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_image_split() -> DataSplit:
    """A tiny 4-class 1x12x12 image task used throughout the suite."""
    config = SyntheticImageConfig(
        num_classes=4,
        image_shape=(1, 12, 12),
        samples_per_class=20,
        noise_std=0.05,
        max_shift=1,
        occlusion_probability=0.0,
    )
    dataset = make_classification_images(config, seed=7, name="tiny")
    return train_test_split(dataset, test_fraction=0.25, seed=7)


@pytest.fixture(scope="session")
def tiny_color_split() -> DataSplit:
    """A tiny 3-channel task (for conv layers with multiple input channels)."""
    config = SyntheticImageConfig(
        num_classes=3,
        image_shape=(3, 10, 10),
        samples_per_class=16,
        noise_std=0.05,
        max_shift=1,
        occlusion_probability=0.0,
    )
    dataset = make_classification_images(config, seed=11, name="tiny-color")
    return train_test_split(dataset, test_fraction=0.25, seed=11)


@pytest.fixture(scope="session")
def trained_mlp(tiny_image_split: DataSplit):
    """A small MLP trained to high accuracy on the tiny image task."""
    data = tiny_image_split
    model = build_mlp(data.input_shape, [32], data.num_classes, seed=3, name="tiny-mlp")
    model.fit(
        data.train.x,
        data.train.y,
        epochs=15,
        batch_size=16,
        optimizer=Adam(learning_rate=2e-3),
        seed=3,
    )
    return model


@pytest.fixture(scope="session")
def trained_cnn(tiny_color_split: DataSplit):
    """A small CNN trained on the tiny colour task."""
    data = tiny_color_split
    model = build_small_cnn(data.input_shape, data.num_classes, seed=5, name="tiny-cnn")
    model.fit(
        data.train.x,
        data.train.y,
        epochs=12,
        batch_size=12,
        optimizer=Adam(learning_rate=2e-3),
        seed=5,
    )
    return model


def numerical_gradient(func, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function of ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"], op_flags=["readwrite"])
    while not it.finished:
        index = it.multi_index
        original = array[index]
        array[index] = original + eps
        plus = func()
        array[index] = original - eps
        minus = func()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture
def grad_checker():
    """Expose the numerical-gradient helper to tests as a fixture."""
    return numerical_gradient


#: registry name of the :func:`alt_backend` test double
ALT_BACKEND = "numpy-alt"


@pytest.fixture
def alt_backend():
    """Register a second backend (the numpy kernels under another name) for
    the duration of one test, for the registry and backend-switch tests
    that need two distinct backends."""
    from repro.backends import registry
    from repro.backends.numpy_backend import NumpyBackend

    class AltBackend(NumpyBackend):
        name = ALT_BACKEND
        description = "numpy kernels under a second name (test double)"

    registry.register_backend(ALT_BACKEND, description=AltBackend.description)(AltBackend)
    try:
        yield ALT_BACKEND
    finally:
        registry._REGISTRY.pop(ALT_BACKEND, None)
        registry._INSTANCES.pop(ALT_BACKEND, None)
