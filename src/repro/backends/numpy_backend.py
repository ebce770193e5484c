"""The numpy reference backend: the seed engine's kernels behind the seam.

This backend *is* the code the engine ran before the backend layer existed —
the kernel bodies were relocated here (not rewritten), so its float64 results
remain bit-identical to the golden seed reference
(``benchmarks/perf/seed_reference.json``).  Every other backend is measured
against this one by the parity suite (``tests/test_backends.py``).

The conv plans are the cached :class:`~repro.ann.im2col.Im2colPlan` (canonical
/ exact path) and :class:`~repro.ann.im2col.DirectConvPlan` (stride-1 float32
halo path) objects unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ann.im2col import DirectConvPlan, Im2colPlan
from repro.backends.base import KernelBackend
from repro.backends.registry import register_backend


class NumpyBackend(KernelBackend):
    """Reference kernels on plain numpy (the project's golden implementation)."""

    name = "numpy"
    description = "reference numpy kernels (float64 bit-identical to the seed engine)"

    # -- buffer allocation -------------------------------------------------
    def empty(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def fill(self, array: np.ndarray, value: float) -> np.ndarray:
        array.fill(value)
        return array

    # -- GEMM family -------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def add_inplace(self, target: np.ndarray, addend: np.ndarray) -> np.ndarray:
        target += addend
        return target

    def scale(self, a: np.ndarray, scalar: float, out: np.ndarray) -> np.ndarray:
        return np.multiply(a, scalar, out=out)

    def take_flat(
        self, a: np.ndarray, flat_indices: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        return np.take(a.reshape(-1), flat_indices, out=out)

    # -- activity scan -----------------------------------------------------
    def count_nonzero(self, x: np.ndarray) -> int:
        return int(np.count_nonzero(x))

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
    ) -> Im2colPlan:
        return Im2colPlan(
            batch_size, channels, height, width,
            kernel_h, kernel_w, stride, padding, dtype=dtype,
        )

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
    ) -> DirectConvPlan:
        return DirectConvPlan(
            batch_size, channels, height, width,
            kernel, padding, out_channels, dtype=dtype,
        )

    # -- pooling kernels ---------------------------------------------------
    def avgpool2x2(self, incoming: np.ndarray, out: np.ndarray) -> np.ndarray:
        oh, ow = out.shape[2], out.shape[3]
        # window-column order (0,0), (0,1), (1,0), (1,1) — the same
        # sequential reduction order as cols.mean(axis=1)
        np.add(
            incoming[:, :, 0 : oh * 2 : 2, 0 : ow * 2 : 2],
            incoming[:, :, 0 : oh * 2 : 2, 1 : ow * 2 : 2],
            out=out,
        )
        out += incoming[:, :, 1 : oh * 2 : 2, 0 : ow * 2 : 2]
        out += incoming[:, :, 1 : oh * 2 : 2, 1 : ow * 2 : 2]
        out /= 4
        return out

    def mean_columns(self, cols: np.ndarray, out_flat: np.ndarray) -> np.ndarray:
        return cols.mean(axis=1, out=out_flat)

    def argmax_columns(self, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.argmax(cols, axis=1, out=out)

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
        v_mem += z
        np.greater_equal(v_mem, threshold, out=spikes)
        # the same comparison as a 0.0/1.0 float array: float·float ufuncs are
        # markedly faster than bool→float converting ones, and every value is
        # exact, so th·signal ≡ th·spike bit for bit in both dtypes
        np.greater_equal(v_mem, threshold, out=signals)
        np.multiply(threshold, signals, out=amplitudes)

        if subtract_reset:
            v_mem -= amplitudes
        else:
            np.copyto(v_mem, v_mem.dtype.type(v_rest), where=spikes)

        if not allow_negative:
            np.maximum(v_mem, v_rest, out=v_mem)
        return int(np.count_nonzero(spikes))

    # -- burst-threshold kernels -------------------------------------------
    def burst_grow(
        self, g: np.ndarray, grown: np.ndarray, beta: float, ceiling: Optional[float]
    ) -> np.ndarray:
        np.multiply(g, beta, out=grown)
        if ceiling is not None:
            np.minimum(grown, ceiling, out=grown)
        return grown

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
        # stop growing once the burst reaches the cap
        np.add(consecutive, 1, out=cons_scratch)
        np.greater_equal(cons_scratch, max_burst_length, out=capped)
        np.copyto(grown, g, where=capped)
        np.multiply(cons_scratch, spikes, out=consecutive)

    def burst_commit_signals(
        self,
        grown: np.ndarray,
        spike_signals: np.ndarray,
        silent_signal: np.ndarray,
        g: np.ndarray,
    ) -> None:
        # g ← spikes ? grown : 1, as three unmasked passes (masked copyto is
        # far slower).  Exact for finite grown: x·1 = x, x·0 = 0, 0+1 = 1.
        np.multiply(grown, spike_signals, out=grown)
        np.subtract(1.0, spike_signals, out=silent_signal)
        np.add(grown, silent_signal, out=g)

    def burst_commit_bool(
        self,
        grown: np.ndarray,
        spikes: np.ndarray,
        silent: np.ndarray,
        g: np.ndarray,
    ) -> None:
        np.logical_not(spikes, out=silent)
        np.multiply(grown, spikes, out=grown)
        np.add(grown, silent, out=g)


@register_backend(
    "numpy",
    description=NumpyBackend.description,
)
def _build_numpy_backend() -> NumpyBackend:
    return NumpyBackend()
