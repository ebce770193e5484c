"""The :class:`KernelBackend` interface: every hot-path primitive in one seam.

The simulation engine's per-step work decomposes into a small set of kernel
primitives — buffer allocation, GEMM, the max-pool gather, the empty-step
nonzero count, im2col / direct-convolution plans, slab pooling, and the
elementwise integrate-and-fire / burst-threshold updates.  A backend implements those
primitives; the layers (:mod:`repro.snn.layers`), neuron states
(:mod:`repro.snn.neurons`) and threshold dynamics
(:mod:`repro.snn.thresholds`) orchestrate *which* primitive runs when, but
never call a kernel library directly.

Contracts
---------
* Every ``out=`` parameter is a preallocated buffer owned by the caller; the
  backend must write the result there and return it (the engine is
  zero-allocation in the steady state and backends must not break that).
* The **numpy reference backend** (:mod:`repro.backends.numpy_backend`) is the
  golden implementation: its float64 results are bit-identical to the seed
  engine (``benchmarks/perf/seed_reference.json``).  Other backends must agree
  at *prediction level* (identical argmax classifications, spike counts within
  the engine's documented float32 tolerance) but may differ in rounding.
* Backends are process-wide singletons resolved by name through
  :mod:`repro.backends.registry`; they must be safe to share across layers and
  sessions (they hold no per-run state — all state lives in caller buffers).

Availability
------------
A backend whose dependency is missing (e.g. ``torch``) registers anyway so it
shows up in ``repro --list-backends`` with a clean unavailability reason;
resolving it raises :class:`~repro.backends.registry.BackendUnavailableError`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class KernelBackend:
    """Abstract kernel backend — see the module docstring for the contracts.

    Subclasses implement every method; :class:`~repro.backends.numpy_backend.
    NumpyBackend` is the reference implementation and the base class of the
    in-tree variants.
    """

    #: registry name (set by the concrete backend)
    name = "base"
    #: one-line description shown by ``repro --list-backends``
    description = ""

    # -- availability ------------------------------------------------------
    def available(self) -> bool:
        """Whether the backend's dependencies are importable on this machine."""
        return True

    def availability_error(self) -> Optional[str]:
        """Human-readable reason when :meth:`available` is False."""
        return None

    # -- buffer allocation -------------------------------------------------
    def empty(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Allocate an uninitialised buffer the engine will fill."""
        raise NotImplementedError

    def zeros(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Allocate a zero-filled buffer."""
        raise NotImplementedError

    def fill(self, array: np.ndarray, value: float) -> np.ndarray:
        """Fill ``array`` with ``value`` in place and return it."""
        raise NotImplementedError

    # -- GEMM family -------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = a @ b`` (the engine's dense propagation GEMM)."""
        raise NotImplementedError

    def add_inplace(self, target: np.ndarray, addend: np.ndarray) -> np.ndarray:
        """``target += addend`` (bias injection / accumulation), broadcasting."""
        raise NotImplementedError

    def scale(self, a: np.ndarray, scalar: float, out: np.ndarray) -> np.ndarray:
        """``out = a * scalar`` elementwise."""
        raise NotImplementedError

    def take_flat(
        self, a: np.ndarray, flat_indices: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Gather from the flattened view of ``a`` (the max-pool winner read)."""
        raise NotImplementedError

    # -- activity scan ---------------------------------------------------
    def count_nonzero(self, x: np.ndarray) -> int:
        """Exact number of nonzero elements (the empty-step test when the
        producing layer reports no count)."""
        raise NotImplementedError

    # -- convolution plans -------------------------------------------------
    def im2col_plan(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        dtype: np.dtype,
    ):
        """Build a cached unfold plan exposing ``fill(x) -> cols`` (the
        canonical conv/pool path; float64 results must be bit-identical to
        :func:`repro.ann.im2col.im2col`)."""
        raise NotImplementedError

    def direct_conv_plan(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel: int,
        padding: int,
        out_channels: int,
        dtype: np.dtype,
    ):
        """Build a stride-1 direct-convolution plan exposing
        ``run(x, taps, bias)`` (the stride-1 float32 path)."""
        raise NotImplementedError

    # -- pooling kernels ---------------------------------------------------
    def avgpool2x2(self, incoming: np.ndarray, out: np.ndarray) -> np.ndarray:
        """2×2 / stride-2 average pooling over strided slab views, preserving
        the reference summation order (window columns (0,0), (0,1), (1,0),
        (1,1), then one divide)."""
        raise NotImplementedError

    def mean_columns(self, cols: np.ndarray, out_flat: np.ndarray) -> np.ndarray:
        """Row-wise mean of an unfolded column matrix (generic pooling)."""
        raise NotImplementedError

    def argmax_columns(self, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Row-wise argmax of an unfolded column matrix (max-pool winners)."""
        raise NotImplementedError

    # -- integrate-and-fire neuron kernel ----------------------------------
    def if_step(
        self,
        v_mem: np.ndarray,
        z: np.ndarray,
        threshold: np.ndarray,
        spikes: np.ndarray,
        signals: np.ndarray,
        amplitudes: np.ndarray,
        subtract_reset: bool,
        v_rest: float,
        allow_negative: bool,
    ) -> int:
        """One fused membrane update (Eqs. 1–5): integrate ``z``, compare to
        ``threshold``, emit boolean ``spikes`` / exact 0.0-1.0 ``signals`` /
        weighted ``amplitudes``, apply the reset rule, and return the spike
        count.  All arrays are caller-owned buffers updated in place.
        """
        raise NotImplementedError

    # -- burst-threshold kernels (Eqs. 8–10) -------------------------------
    def burst_grow(
        self, g: np.ndarray, grown: np.ndarray, beta: float, ceiling: Optional[float]
    ) -> np.ndarray:
        """``grown = g * beta``, clamped to ``ceiling`` when given (overflow
        guard; ``None`` skips the provably-identity clamp pass)."""
        raise NotImplementedError

    def burst_cap(
        self,
        grown: np.ndarray,
        g: np.ndarray,
        spikes: np.ndarray,
        consecutive: np.ndarray,
        cons_scratch: np.ndarray,
        capped: np.ndarray,
        max_burst_length: int,
    ) -> None:
        """Stop the burst function growing past ``max_burst_length``
        consecutive spikes, updating the consecutive-spike counter in place."""
        raise NotImplementedError

    def burst_commit_signals(
        self,
        grown: np.ndarray,
        spike_signals: np.ndarray,
        silent_signal: np.ndarray,
        g: np.ndarray,
    ) -> None:
        """``g = spikes ? grown : 1`` via the exact 0.0/1.0 float spike
        rendering (the all-float fast path)."""
        raise NotImplementedError

    def burst_commit_bool(
        self,
        grown: np.ndarray,
        spikes: np.ndarray,
        silent: np.ndarray,
        g: np.ndarray,
    ) -> None:
        """``g = spikes ? grown : 1`` from the boolean spike array (fallback
        when no float rendering is available)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
