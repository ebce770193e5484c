"""Pluggable compute backends for the simulation engine's kernel hot paths.

The engine's per-step math — GEMMs, the max-pool gather, im2col /
direct-convolution plans, slab pooling and the elementwise integrate-and-fire
/ burst-threshold updates — runs behind the :class:`KernelBackend` seam
defined in :mod:`repro.backends.base`.  Backends register by name (the same
decorator pattern as the coding-scheme registry) and are resolved through
:func:`resolve_backend`; ``repro --list-backends`` prints the registry.

In-tree backends:

* ``numpy`` (default) — the reference kernels, float64 bit-identical to the
  seed engine;
* ``torch`` — optional PyTorch kernels; registers everywhere, resolves only
  where torch is installed (clean unavailability error otherwise).

Selection: ``SimulationConfig(backend=...)`` / ``PipelineConfig(backend=...)``
/ ``ServingConfig(backend=...)``, the ``repro --backend`` CLI flag, or the
``REPRO_BACKEND`` environment variable.

Each layer's ``step`` is written once, over these primitives (``self.ops``),
so a backend only implements kernels: it never sees a layer or the step loop.
"""

from repro.backends.base import KernelBackend
from repro.backends.registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    BackendUnavailableError,
    UnknownBackendError,
    backend_metadata,
    backend_names,
    backend_scope,
    clear_backend_instances,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    validate_backend_name,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "KernelBackend",
    "UnknownBackendError",
    "backend_metadata",
    "backend_names",
    "backend_scope",
    "clear_backend_instances",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "validate_backend_name",
]
