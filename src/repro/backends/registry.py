"""Pluggable registry of compute backends (the coding-registry pattern).

Backends register a *factory* under a name; the factory builds the backend
instance on first resolution and may raise
:class:`BackendUnavailableError` when its dependency is missing (e.g. the
``torch`` backend without PyTorch installed).  Unavailable backends still
appear in listings — ``repro --list-backends`` shows the reason — but cannot
be resolved.

Resolution order for the effective backend (mirroring the dtype policy in
:mod:`repro.utils.dtypes`):

1. an explicit ``backend=`` argument / config field
   (e.g. ``SimulationConfig(backend="torch")``);
2. a process-wide override installed via :func:`set_default_backend` or the
   :func:`backend_scope` context manager (the CLI's ``--backend`` flag);
3. the ``REPRO_BACKEND`` environment variable;
4. the project default, ``numpy``.

Adding a backend in one file
----------------------------
Subclass :class:`~repro.backends.base.KernelBackend` (usually via
:class:`~repro.backends.numpy_backend.NumpyBackend`, overriding only the
kernels that differ), register a factory, and import the module once::

    from repro.backends.registry import register_backend

    @register_backend("my-backend", description="…")
    def _build_my_backend():
        return MyBackend()
"""

from __future__ import annotations

import contextlib
import difflib
import os
import threading
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.backends.base import KernelBackend

#: builds a backend instance (raises BackendUnavailableError when it cannot)
BackendFactory = Callable[[], KernelBackend]

#: the project default backend
DEFAULT_BACKEND = "numpy"

#: name of the environment variable selecting the process default
BACKEND_ENV_VAR = "REPRO_BACKEND"


class UnknownBackendError(ValueError):
    """Raised for an unregistered backend name (with a did-you-mean hint)."""


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend's dependency is missing."""


class BackendDefinition:
    """One registered backend: name, factory and description."""

    __slots__ = ("name", "description", "factory")

    def __init__(self, name: str, description: str, factory: BackendFactory) -> None:
        self.name = name
        self.description = description
        self.factory = factory


_REGISTRY: Dict[str, BackendDefinition] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_INSTANCE_LOCK = threading.Lock()
_BUILTINS_LOADED = False
_override: Optional[str] = None


def register_backend(
    name: str, *, description: str = ""
) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator registering a backend factory under ``name``."""
    key = str(name).strip().lower()
    if not key:
        raise ValueError("backend name must be a non-empty string")

    def decorator(factory: BackendFactory) -> BackendFactory:
        _REGISTRY[key] = BackendDefinition(key, description, factory)
        return factory

    return decorator


def _ensure_builtins() -> None:
    """Import the modules registering the in-tree backends (idempotent).

    The loaded flag is only set after every import succeeds, so a transient
    failure surfaces again on the next call instead of leaving the registry
    permanently empty.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # imported for their registration side effects
    import repro.backends.numpy_backend  # noqa: F401  (the reference backend)
    import repro.backends.torch_backend  # noqa: F401  (optional torch backend)

    _BUILTINS_LOADED = True


def _definition(name: str) -> BackendDefinition:
    _ensure_builtins()
    key = str(name).strip().lower()
    definition = _REGISTRY.get(key)
    if definition is None:
        available = sorted(_REGISTRY)
        close = difflib.get_close_matches(key, available, n=1)
        hint = f"did you mean {close[0]!r}? " if close else ""
        raise UnknownBackendError(
            f"unknown compute backend {name!r}; {hint}available: {', '.join(available)}"
        )
    return definition


def backend_names() -> List[str]:
    """All registered backend names, sorted (available or not)."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def validate_backend_name(name: str) -> str:
    """Check ``name`` is registered (raising with a did-you-mean hint) and
    return its canonical form.  Does *not* require the backend's dependency to
    be importable — availability is checked at resolution time."""
    return _definition(name).name


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend name to its (cached, process-wide) instance.

    Raises :class:`UnknownBackendError` for unregistered names and
    :class:`BackendUnavailableError` when the backend's dependency is missing.
    """
    definition = _definition(name)
    with _INSTANCE_LOCK:
        instance = _INSTANCES.get(definition.name)
        if instance is None:
            instance = definition.factory()
            _INSTANCES[definition.name] = instance
    return instance


def default_backend_name() -> str:
    """The currently effective backend name (without an explicit override)."""
    if _override is not None:
        return _override
    env = os.environ.get(BACKEND_ENV_VAR)
    if env and env.strip():
        return validate_backend_name(env)
    return DEFAULT_BACKEND


def set_default_backend(name: Optional[str]) -> str:
    """Install a process-wide default backend (``None`` clears the override)."""
    global _override
    _override = None if name is None else validate_backend_name(name)
    return default_backend_name()


@contextlib.contextmanager
def backend_scope(name: str) -> Iterator[KernelBackend]:
    """Temporarily override the default backend::

        with backend_scope("numpy"):
            result = snn.run(x, config)
    """
    global _override
    previous = _override
    _override = validate_backend_name(name)
    try:
        yield get_backend(_override)
    finally:
        _override = previous


def resolve_backend(value: "Union[str, KernelBackend, None]" = None) -> KernelBackend:
    """Resolve an optional explicit backend against the policy default.

    Accepts a :class:`~repro.backends.base.KernelBackend` instance (returned
    as-is), a registered name, or ``None`` for the process default.
    """
    if isinstance(value, KernelBackend):
        return value
    if value is None:
        return get_backend(default_backend_name())
    return get_backend(value)


def backend_metadata() -> List[Dict[str, object]]:
    """Introspection rows for every registered backend (available or not).

    The single source of truth behind ``repro --list-backends`` and the test
    suite's backend matrix: one plain dict per backend with its availability
    and, when unavailable, the reason.
    """
    _ensure_builtins()
    rows: List[Dict[str, object]] = []
    for key in sorted(_REGISTRY):
        definition = _REGISTRY[key]
        error: Optional[str] = None
        try:
            instance = get_backend(key)
            if not instance.available():
                error = instance.availability_error() or "unavailable"
        except BackendUnavailableError as exc:
            error = str(exc)
        rows.append(
            {
                "backend": definition.name,
                "available": error is None,
                "default": definition.name == DEFAULT_BACKEND,
                "description": definition.description,
                "error": error,
            }
        )
    return rows


def clear_backend_instances() -> None:
    """Drop every cached backend instance (tests)."""
    with _INSTANCE_LOCK:
        _INSTANCES.clear()
