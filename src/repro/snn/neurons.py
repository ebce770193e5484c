"""Integrate-and-fire neuron populations.

Implements the membrane dynamics of Eqs. 1–4 of the paper for a whole layer at
once (vectorised over the batch and the neuron dimensions):

* Eq. 2 — a neuron fires when its membrane potential reaches the (possibly
  time-varying, possibly per-neuron) threshold ``V_th(t)``.
* Eq. 3 — *reset-to-zero*: after a spike the membrane returns to the resting
  potential (0).
* Eq. 4 — *reset-by-subtraction*: the threshold value is subtracted instead,
  which preserves the residual charge and avoids the information loss that
  plagues reset-to-zero in converted SNNs (Rueckauer et al. [12, 13]).

The spike *amplitude* transmitted downstream equals the neuron's threshold at
firing time (weighted spikes, Eq. 5), which is what makes phase and burst
coding transmit more than one "unit" of information per spike.

Performance contract
--------------------
:meth:`IFNeuronState.step` is the innermost loop of the simulation engine and
is allocation-free in the steady state: the membrane is updated in place and
the spike / amplitude arrays returned are preallocated scratch buffers owned
by the state.  **The returned arrays are only valid until the next**
``step()`` **call** — callers that need to keep them across steps must copy.
Precision follows the project dtype policy (:mod:`repro.utils.dtypes`):
float32 by default, float64 opt-in, with float64 results bit-identical to the
original non-in-place implementation.

The elementwise update itself runs on the resolved
:class:`~repro.backends.base.KernelBackend` (``ops.if_step`` — one fused
integrate / compare / reset kernel); the numpy reference backend is the
relocated original code, so the bit-identity guarantee is unchanged.

Threshold positivity is validated once per simulation (on the first step
after ``reset``) rather than every step; the threshold dynamics classes
already guarantee positivity structurally (``v_th > 0`` at construction,
burst/phase modulation factors are positive).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.backends import resolve_backend
from repro.utils.dtypes import DTypeLike, resolve_dtype


class ResetMode(str, enum.Enum):
    """Membrane reset behaviour after a spike."""

    #: Reset the membrane to the resting potential (Eq. 3).
    ZERO = "zero"
    #: Subtract the firing threshold from the membrane (Eq. 4).
    SUBTRACT = "subtract"

    @classmethod
    def from_value(cls, value: "ResetMode | str") -> "ResetMode":
        if isinstance(value, ResetMode):
            return value
        try:
            return cls(value)
        except ValueError as exc:
            raise ValueError(
                f"reset mode must be one of {[m.value for m in cls]}, got {value!r}"
            ) from exc


class IFNeuronState:
    """Vectorised membrane state of one spiking layer.

    Parameters
    ----------
    shape:
        Full state shape including the batch dimension, e.g. ``(N, units)`` or
        ``(N, C, H, W)``.
    reset_mode:
        :class:`ResetMode` or its string value.
    v_rest:
        Resting potential used by reset-to-zero (default 0).
    allow_negative_membrane:
        If False the membrane is clamped at ``v_rest`` from below, which some
        neuromorphic hardware enforces.  The paper's model allows negative
        potentials, so the default is True.
    dtype:
        Simulation precision; ``None`` resolves through the project dtype
        policy (float32 default, see :mod:`repro.utils.dtypes`).
    ops:
        The :class:`~repro.backends.base.KernelBackend` running the update
        kernel (name, instance, or ``None`` for the backend policy default).
    """

    def __init__(
        self,
        shape: Tuple[int, ...],
        reset_mode: "ResetMode | str" = ResetMode.SUBTRACT,
        v_rest: float = 0.0,
        allow_negative_membrane: bool = True,
        dtype: DTypeLike = None,
        ops=None,
    ) -> None:
        if not shape or any(int(dim) <= 0 for dim in shape):
            raise ValueError(f"shape must contain positive dimensions, got {shape}")
        self.shape = tuple(int(dim) for dim in shape)
        self.reset_mode = ResetMode.from_value(reset_mode)
        self._subtract_reset = self.reset_mode is ResetMode.SUBTRACT
        self.v_rest = float(v_rest)
        self.allow_negative_membrane = allow_negative_membrane
        self.dtype = resolve_dtype(dtype)
        self.ops = resolve_backend(ops)
        self.v_mem = np.full(self.shape, self.v_rest, dtype=self.dtype)
        self.total_spikes = 0
        #: spikes emitted at the most recent step (int; kept for fast dispatch)
        self.last_spike_count = 0
        # Preallocated per-step scratch buffers (returned by step()).
        self._spikes = self.ops.zeros(self.shape, np.dtype(bool))
        self._spike_signals = self.ops.zeros(self.shape, self.dtype)
        self._amplitudes = self.ops.zeros(self.shape, self.dtype)
        self._threshold_validated = False

    def reset(self) -> None:
        """Return the membrane to the resting potential and clear counters."""
        self.v_mem.fill(self.v_rest)
        self.total_spikes = 0
        self.last_spike_count = 0
        self._threshold_validated = False

    def shrink_batch(self, keep: np.ndarray) -> None:
        """Keep only the batch rows ``keep`` (converged-image early exit).

        Membrane potentials of the surviving rows carry over; the per-step
        scratch buffers are rebuilt for the smaller batch.  ``total_spikes``
        keeps counting across the shrink.
        """
        keep = np.asarray(keep, dtype=np.intp)
        if keep.size == 0:
            raise ValueError("shrink_batch requires at least one kept row")
        self.v_mem = np.ascontiguousarray(self.v_mem[keep])
        self.shape = self.v_mem.shape
        self._spikes = self.ops.zeros(self.shape, np.dtype(bool))
        self._spike_signals = self.ops.zeros(self.shape, self.dtype)
        self._amplitudes = self.ops.zeros(self.shape, self.dtype)

    def step(self, z: np.ndarray, threshold: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the population by one time step (in place, allocation-free).

        Parameters
        ----------
        z:
            Post-synaptic potential (Eq. 1/5) accumulated this step; must be
            broadcastable to the state shape.
        threshold:
            Firing threshold ``V_th(t)`` per neuron (broadcastable).

        Returns
        -------
        spikes:
            Boolean array of emitted spikes (Eq. 2).
        amplitudes:
            Weighted spike amplitudes (``spikes * threshold``) transmitted to
            the next layer.

        Both returned arrays are scratch buffers owned by this state and are
        overwritten by the next ``step()`` call.
        """
        z = np.asarray(z, dtype=self.dtype)
        threshold = np.asarray(threshold, dtype=self.dtype)
        if not self._threshold_validated:
            if np.any(threshold <= 0):
                raise ValueError("thresholds must be strictly positive")
            self._threshold_validated = True

        spikes = self._spikes
        amplitudes = self._amplitudes
        self.last_spike_count = self.ops.if_step(
            self.v_mem,
            z,
            threshold,
            spikes,
            self._spike_signals,
            amplitudes,
            self._subtract_reset,
            self.v_rest,
            self.allow_negative_membrane,
        )
        self.total_spikes += self.last_spike_count
        return spikes, amplitudes

    @property
    def spike_signals(self) -> np.ndarray:
        """The most recent spikes as an exact 0.0/1.0 array in the state dtype.

        Scratch buffer semantics as for :meth:`step`'s return values: valid
        only until the next ``step`` call.
        """
        return self._spike_signals

    @property
    def num_neurons(self) -> int:
        """Number of neurons per sample (state size without the batch dim)."""
        size = 1
        for dim in self.shape[1:]:
            size *= dim
        return size

    def membrane_copy(self) -> np.ndarray:
        """A copy of the current membrane potentials (for tests / analysis)."""
        return self.v_mem.copy()


def expected_rate_spike_count(value: float, threshold: float, time_steps: int) -> int:
    """Number of spikes an IF neuron with constant input ``value`` and constant
    threshold emits in ``time_steps`` steps under reset-by-subtraction.

    Used by tests as an analytic reference: the neuron accumulates ``value``
    per step and emits ``floor(total / threshold)`` spikes overall, capped at
    one spike per time step.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if time_steps < 0:
        raise ValueError("time_steps must be non-negative")
    if value <= 0:
        return 0
    return int(min(time_steps, np.floor(value * time_steps / threshold + 1e-12)))
