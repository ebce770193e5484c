"""Input-layer encoders: real, rate, phase and burst input coding.

The input layer's job is to turn a static, bounded analog input (an image in
``[0, 1]``) into the quantity injected into the first spiking layer at every
time step.  Following Eq. 5, a spike is *weighted*: what the next layer sees
is the spike amplitude, not just a 0/1 event.  The encoders therefore return
both the transmitted **values** (amplitudes, or the analog value itself for
real coding) and the boolean **spikes** (used for spike counting and energy
estimation — real coding transmits values without emitting spikes).

Throughput conventions (important for hybrid coding, see DESIGN.md):

* *real* and *rate* coding transmit on average ``x`` per time step
  (``throughput_factor = 1``);
* *phase* coding transmits the k-bit value ``x`` once per period of ``k``
  steps (``throughput_factor = 1/k``), exactly as in Kim et al. [14];
* *burst* input coding drives an IF neuron with burst threshold adaptation by
  a constant current ``x`` (``throughput_factor = 1``).

The pipeline uses ``throughput_factor`` to scale per-step bias injection so
biases stay proportionate to the rate at which evidence arrives.

Performance contract
--------------------
``reset(x, dtype=...)`` converts the input batch to the simulation dtype once
(float32 policy default, float64 opt-in — see :mod:`repro.utils.dtypes`) and
preallocates the per-step value/spike buffers; ``step`` is then
allocation-free.  The arrays inside the returned :class:`EncodedStep` are
reusable buffers, **valid only until the encoder's next step** — copy them if
they must survive longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.snn.neurons import IFNeuronState, ResetMode
from repro.snn.thresholds import BurstThreshold
from repro.utils.config import validate_positive
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import SeedLike, as_rng


@dataclass
class EncodedStep:
    """What the input layer transmits during one time step.

    Attributes
    ----------
    values:
        Array with the same shape as the input batch; the weighted-spike
        amplitudes (or analog values for real coding) delivered to the first
        layer's synapses.
    spikes:
        Boolean array marking which input neurons emitted a spike this step.
    count:
        ``count_nonzero(spikes)`` when the encoder already knows it (periodic
        encoders keep it per phase); ``None`` counts on demand.
    """

    values: np.ndarray
    spikes: np.ndarray
    count: Optional[int] = None

    @property
    def spike_count(self) -> int:
        """Total number of spikes emitted this step."""
        if self.count is not None:
            return self.count
        return int(np.count_nonzero(self.spikes))


class InputEncoder:
    """Base class for input encoders.

    Usage: ``encoder.reset(x)`` with the input batch (values in ``[0, 1]``),
    then ``encoder.step(t)`` for ``t = 0, 1, …``.
    """

    #: short name used in configuration strings
    coding = "base"
    #: average fraction of the analog value transmitted per time step
    throughput_factor = 1.0
    #: True when the transmitted values are nonzero exactly where spikes were
    #: emitted (weighted-spike encoders); real coding transmits dense analog
    #: values without spikes and overrides this to False
    values_nonzero_tracks_spikes = True
    #: False for stochastic encoders whose RNG stream advances across runs;
    #: the pipeline neither caches nor shards networks built around them
    #: (reuse or re-splitting would change which random numbers each batch
    #: sees relative to one sequential pass)
    deterministic = True

    @property
    def steady_period(self) -> Optional[int]:
        """Period (in steps) after which the encoder's output repeats exactly.

        ``None`` for encoders whose output is stateful or stochastic.  When a
        period is declared, the simulation engine caches the first layer's
        synaptic input per phase and replays it — bit-exact, since the cached
        arrays are the identical earlier results.
        """
        return None

    def shrink_batch(self, keep: np.ndarray) -> None:
        """Keep only the batch rows ``keep`` (converged-image early exit)."""
        keep = np.asarray(keep, dtype=np.intp)
        if keep.size == 0:
            raise ValueError("shrink_batch requires at least one kept row")
        if hasattr(self, "_x"):
            self._x = np.ascontiguousarray(self._x[keep])

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        """Load a new input batch (clipped to ``[0, 1]``).

        ``dtype`` selects the simulation precision (``None`` resolves through
        the project dtype policy).
        """
        self.dtype = resolve_dtype(dtype)
        x = np.asarray(x, dtype=self.dtype)
        if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
            raise ValueError(
                "input encoders expect values in [0, 1]; normalise inputs first "
                f"(got range [{x.min():.4f}, {x.max():.4f}])"
            )
        self._x = np.clip(x, 0.0, 1.0)

    def step(self, t: int) -> EncodedStep:
        """Produce the transmitted values and spikes for time step ``t``."""
        raise NotImplementedError

    @property
    def input(self) -> np.ndarray:
        if not hasattr(self, "_x"):
            raise RuntimeError("encoder.reset(x) must be called before step()")
        return self._x

    def describe(self) -> str:
        return type(self).__name__


class RealEncoder(InputEncoder):
    """Real coding: deliver the analog value itself at every step.

    No spikes are emitted — the first layer receives an analog current, as in
    Rueckauer et al. [12, 13] ("real" input in Table 1).  The same value and
    (empty) spike buffers are returned every step.
    """

    coding = "real"
    throughput_factor = 1.0
    values_nonzero_tracks_spikes = False  # analog values, no spikes

    @property
    def steady_period(self) -> Optional[int]:
        return 1  # the analog values are re-delivered unchanged every step

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        super().reset(x, dtype)
        self._step = EncodedStep(self._x, np.zeros(self._x.shape, dtype=bool), 0)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        self._step = EncodedStep(self._x, np.zeros(self._x.shape, dtype=bool), 0)

    def step(self, t: int) -> EncodedStep:
        del t
        if not hasattr(self, "_step"):
            raise RuntimeError("encoder.reset(x) must be called before step()")
        return self._step


class RateEncoder(InputEncoder):
    """Deterministic rate coding via an integrate-and-fire input neuron.

    Each input neuron integrates its pixel value every step and emits a
    unit-amplitude spike (amplitude ``v_th``) whenever the accumulated value
    crosses ``v_th`` — so the long-run spike rate is proportional to the pixel
    value.  This is the deterministic variant commonly used in conversion
    work; :class:`PoissonRateEncoder` provides the stochastic variant.
    """

    coding = "rate"
    throughput_factor = 1.0

    def __init__(self, v_th: float = 1.0) -> None:
        validate_positive("v_th", v_th)
        self.v_th = float(v_th)
        self._state: Optional[IFNeuronState] = None
        self._threshold: Optional[np.ndarray] = None

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        super().reset(x, dtype)
        self._state = IFNeuronState(
            self.input.shape, reset_mode=ResetMode.SUBTRACT, dtype=self.dtype
        )
        self._threshold = np.asarray(self.v_th, dtype=self.dtype)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        if self._state is not None:
            self._state.shrink_batch(np.asarray(keep, dtype=np.intp))

    def step(self, t: int) -> EncodedStep:
        del t
        if self._state is None or self._threshold is None:
            raise RuntimeError("encoder.reset(x) must be called before step()")
        spikes, amplitudes = self._state.step(self.input, self._threshold)
        return EncodedStep(values=amplitudes, spikes=spikes)


class PoissonRateEncoder(InputEncoder):
    """Stochastic rate coding: spike with probability equal to the pixel value.

    Spikes have amplitude ``v_th``; the expected transmitted value per step is
    ``x · v_th``.  Used for robustness experiments and property tests; the
    deterministic :class:`RateEncoder` is the default for reproducibility.
    """

    coding = "rate-poisson"
    throughput_factor = 1.0
    deterministic = False

    def __init__(self, v_th: float = 1.0, seed: SeedLike = None) -> None:
        validate_positive("v_th", v_th)
        self.v_th = float(v_th)
        self._rng = as_rng(seed)
        self._spikes: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        super().reset(x, dtype)
        self._spikes = np.empty(self._x.shape, dtype=bool)
        self._values = np.empty(self._x.shape, dtype=self.dtype)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        self._spikes = np.empty(self._x.shape, dtype=bool)
        self._values = np.empty(self._x.shape, dtype=self.dtype)

    def step(self, t: int) -> EncodedStep:
        del t
        x = self.input
        if self._spikes is None or self._values is None:
            raise RuntimeError("encoder.reset(x) must be called before step()")
        np.less(self._rng.uniform(size=x.shape), x, out=self._spikes)
        np.multiply(self._spikes, self.v_th, out=self._values)
        return EncodedStep(values=self._values, spikes=self._spikes)


class PhaseEncoder(InputEncoder):
    """Phase coding of the input (weighted spikes, Kim et al. [14]).

    The pixel value is quantised to ``period`` bits; during phase ``p`` of each
    period a spike of amplitude ``2^-(1+p) · v_th`` is emitted iff bit ``p`` of
    the quantised value is set.  One full period therefore transmits the value
    with ``period``-bit precision, and the per-step throughput is ``1/period``.

    The output repeats every period, so ``reset`` encodes the whole period
    once — per-phase spikes, amplitudes and spike counts — and ``step`` only
    looks the phase up.
    """

    coding = "phase"

    def __init__(self, v_th: float = 1.0, period: int = 8) -> None:
        validate_positive("v_th", v_th)
        if period <= 0 or period > 30:
            raise ValueError(f"period must be in [1, 30], got {period}")
        self.v_th = float(v_th)
        self.period = int(period)
        self._bits: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._steps: List[EncodedStep] = []

    @property
    def throughput_factor(self) -> float:  # type: ignore[override]
        return 1.0 / self.period

    @property
    def steady_period(self) -> Optional[int]:
        return self.period  # the quantised bit pattern repeats every period

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        if self._bits is not None:
            keep = np.asarray(keep, dtype=np.intp)
            self._bits = np.ascontiguousarray(self._bits[:, keep])
            self._values = np.ascontiguousarray(self._values[:, keep])
            self._index_period()

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        super().reset(x, dtype)
        # Quantise to `period` bits: x ≈ sum_p bit_p 2^-(p+1)
        scaled = np.round(np.asarray(self.input, dtype=np.float64) * (2**self.period)).astype(np.int64)
        scaled = np.clip(scaled, 0, 2**self.period - 1)
        bits = np.empty((self.period,) + self.input.shape, dtype=bool)
        values = np.empty((self.period,) + self.input.shape, dtype=self.dtype)
        for p in range(self.period):
            # bit for weight 2^-(p+1) is bit (period-1-p) of the integer
            bits[p] = (scaled >> (self.period - 1 - p)) & 1
            np.multiply(bits[p], (2.0 ** (-(1 + p))) * self.v_th, out=values[p])
        self._bits = bits
        self._values = values
        self._index_period()

    def _index_period(self) -> None:
        """Build the per-phase steps (with their spike counts) once."""
        self._steps = [
            EncodedStep(values, bits, int(np.count_nonzero(bits)))
            for values, bits in zip(self._values, self._bits)
        ]

    def step(self, t: int) -> EncodedStep:
        if not self._steps:
            raise RuntimeError("encoder.reset(x) must be called before step()")
        return self._steps[t % self.period]


class BurstEncoder(InputEncoder):
    """Burst coding of the input: an IF neuron with burst threshold adaptation
    driven by a constant current equal to the pixel value.

    Not evaluated as an input coding in the paper (its Table 1 uses real, rate
    and phase inputs) but provided for completeness; it behaves like rate
    coding for small pixel values and emits short bursts for bright pixels.
    """

    coding = "burst"
    throughput_factor = 1.0

    def __init__(self, v_th: float = 0.125, beta: float = 2.0) -> None:
        self.threshold = BurstThreshold(v_th=v_th, beta=beta)
        self._state: Optional[IFNeuronState] = None

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        super().reset(x, dtype)
        self._state = IFNeuronState(
            self.input.shape, reset_mode=ResetMode.SUBTRACT, dtype=self.dtype
        )
        self.threshold.reset(self.input.shape, dtype=self.dtype)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        keep = np.asarray(keep, dtype=np.intp)
        if self._state is not None:
            self._state.shrink_batch(keep)
        self.threshold.shrink_batch(keep)

    def step(self, t: int) -> EncodedStep:
        if self._state is None:
            raise RuntimeError("encoder.reset(x) must be called before step()")
        thresholds = self.threshold.thresholds(t)
        spikes, amplitudes = self._state.step(self.input, thresholds)
        self.threshold.update(
            spikes, self._state.spike_signals, spike_count=self._state.last_spike_count
        )
        return EncodedStep(values=amplitudes, spikes=spikes)


def make_encoder(
    coding: str,
    v_th: Optional[float] = None,
    phase_period: int = 8,
    beta: float = 2.0,
    seed: SeedLike = None,
    stochastic: bool = False,
) -> InputEncoder:
    """Build an input encoder by coding name.

    Resolution goes through the scheme registry
    (:mod:`repro.core.registry`), so registered extensions (e.g. ``"ttfs"``)
    work here without this function knowing about them.

    Parameters
    ----------
    coding:
        ``"real"``, ``"rate"``, ``"phase"``, ``"burst"`` or any registered
        coding name.
    v_th:
        Spike amplitude scale; defaults to the coding's registered default
        (1.0 for most, 0.125 for burst).
    phase_period:
        Bit-depth / period of phase coding (also the TTFS window).
    stochastic:
        For rate coding, use the Poisson variant instead of the deterministic
        integrate-and-fire one.
    """
    from repro.core.coding import CodingParams
    from repro.core.registry import build_encoder

    params = CodingParams(
        v_th=v_th, beta=beta, phase_period=phase_period, stochastic_input=stochastic
    )
    return build_encoder(coding, params=params, seed=seed)


# -- registry wiring ---------------------------------------------------------
# Placed after the encoder classes so this module stays importable while
# ``repro.core`` is still initialising (the registry module itself is
# runtime-import-free).  Factories receive a CodingParams whose ``v_th`` has
# been resolved against ``default_v_th``.
from repro.core.registry import register_encoder  # noqa: E402


@register_encoder(
    "real",
    default_v_th=1.0,
    description="deliver the analog value itself every step (no spikes; input-only)",
)
def _build_real_encoder(params, seed: SeedLike = None) -> InputEncoder:
    del params, seed
    return RealEncoder()


@register_encoder(
    "rate",
    default_v_th=1.0,
    description="spike rate proportional to the value (IF or Poisson input neuron)",
)
def _build_rate_encoder(params, seed: SeedLike = None) -> InputEncoder:
    if params.stochastic_input:
        return PoissonRateEncoder(v_th=params.v_th, seed=seed)
    return RateEncoder(v_th=params.v_th)


@register_encoder(
    "phase",
    default_v_th=1.0,
    description="k-bit weighted spikes, one value per period of k steps (Kim et al.)",
)
def _build_phase_encoder(params, seed: SeedLike = None) -> InputEncoder:
    del seed
    return PhaseEncoder(v_th=params.v_th, period=params.phase_period)


@register_encoder(
    "burst",
    default_v_th=0.125,
    description="IF neuron with burst threshold adaptation (this paper)",
)
def _build_burst_encoder(params, seed: SeedLike = None) -> InputEncoder:
    del seed
    return BurstEncoder(v_th=params.v_th, beta=params.beta)
