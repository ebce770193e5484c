"""im2col / col2im utilities backing the Conv2D and pooling layers.

A convolution over a channel-first batch ``(N, C, H, W)`` is expressed as a
single matrix multiplication by unfolding every receptive field into a column.
The same unfolding is reused by the pooling layers and by the spiking
convolution layer in :mod:`repro.snn.layers`, which keeps the ANN forward pass
and the SNN per-time-step pass numerically identical for the same weights.

Two entry points are provided:

* :func:`im2col` — the one-shot form used by the ANN forward/backward passes
  (geometry recomputed and a fresh column matrix allocated per call);
* :class:`Im2colPlan` — the cached form used by the SNN engine, which unfolds
  the *same* geometry hundreds of times (once per simulation step).  The plan
  precomputes the output geometry and the strided-window view once, owns a
  reusable padded input buffer and column buffer, and each :meth:`fill` is a
  single strided copy with no allocations.  The column layout is identical to
  :func:`im2col`'s, so results are bit-for-bit the same.

A third form, :class:`DirectConvPlan`, skips the column matrix entirely for
stride-1 convolutions (one stacked GEMM per kernel tap over a padded NHWC halo
buffer).  It reassociates the reduction, so the SNN engine uses it only on
its tolerance-based float32 path — the float64 exact path stays on
:class:`Im2colPlan`.  Which plan a layer runs depends only on its geometry
and dtype; nothing is timed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def direct_engine_cache_snapshot() -> dict:
    """Return ``{}``: :class:`DirectConvPlan` has one GEMM engine, so no
    engine choice is probed or cached.

    ``perfbench/snn_trace.py`` reads it for the ``im2col.engine_probes``
    metric (now always 0); the function goes with the next change to
    ``perfbench/``.
    """
    return {}


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding} gives non-positive output {out}"
        )
    return out


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")

    # Strided sliding-window view: (N, C, out_h, out_w, kernel_h, kernel_w)
    stride_n, stride_c, stride_h, stride_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(stride_n, stride_c, stride_h * stride, stride_w * stride, stride_h, stride_w),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel_h * kernel_w)
    return np.ascontiguousarray(cols), out_h, out_w


class Im2colPlan:
    """Cached im2col execution plan for a fixed unfold geometry.

    The SNN engine unfolds the same ``(N, C, H, W)`` geometry at every
    simulation step.  This plan computes the geometry once, owns

    * a reusable (padded) input buffer,
    * the strided sliding-window view over that buffer, and
    * a reusable column buffer laid out exactly like :func:`im2col`'s output,

    so that each :meth:`fill` call is two strided copies (input → padded
    buffer, window view → column buffer) with zero allocations.  Column
    values are bit-for-bit identical to ``im2col(x, ...)[0]``.

    Parameters
    ----------
    batch_size, channels, height, width:
        Input geometry (per step), batch dimension included.
    kernel_h, kernel_w, stride, padding:
        Unfold geometry, as in :func:`im2col`.
    dtype:
        dtype of the buffers (the simulation dtype of the owning layer).
    """

    def __init__(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        dtype: "np.dtype | type" = np.float64,
    ) -> None:
        if batch_size <= 0 or channels <= 0 or height <= 0 or width <= 0:
            raise ValueError(
                f"invalid input geometry ({batch_size}, {channels}, {height}, {width})"
            )
        self.input_shape = (batch_size, channels, height, width)
        self.kernel_h = int(kernel_h)
        self.kernel_w = int(kernel_w)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dtype = np.dtype(dtype)
        self.out_h = conv_output_size(height, kernel_h, stride, padding)
        self.out_w = conv_output_size(width, kernel_w, stride, padding)

        n, c = batch_size, channels
        padded_h = height + 2 * padding
        padded_w = width + 2 * padding
        # Padded input buffer; the zero border is written once and never
        # touched again (fill() only overwrites the interior).
        self._padded = np.zeros((n, c, padded_h, padded_w), dtype=self.dtype)
        if padding > 0:
            self._interior = self._padded[
                :, :, padding : padding + height, padding : padding + width
            ]
        else:
            self._interior = self._padded

        stride_n, stride_c, stride_h, stride_w = self._padded.strides
        windows = np.lib.stride_tricks.as_strided(
            self._padded,
            shape=(n, c, self.out_h, self.out_w, self.kernel_h, self.kernel_w),
            strides=(
                stride_n,
                stride_c,
                stride_h * self.stride,
                stride_w * self.stride,
                stride_h,
                stride_w,
            ),
            writeable=False,
        )
        # Source view in the column ordering (N, out_h, out_w, C, kh, kw); the
        # destination buffer is C-contiguous so its 2-D reshape is a free view.
        self._windows = windows.transpose(0, 2, 3, 1, 4, 5)
        self._cols6 = np.empty(
            (n, self.out_h, self.out_w, c, self.kernel_h, self.kernel_w), dtype=self.dtype
        )
        self.cols = self._cols6.reshape(
            n * self.out_h * self.out_w, c * self.kernel_h * self.kernel_w
        )
        # Copy strategy: one 6-D strided copy, or one 4-D copy per kernel
        # position.  The 6-D iterator wins only for very small channel counts;
        # per-position slabs win everywhere else (and always for pooling,
        # where stride == kernel).  Values are identical either way.
        self._use_slabs = c >= 4 or self.kernel_h * self.kernel_w <= 4
        self._slab_pairs = []
        for ky in range(self.kernel_h):
            for kx in range(self.kernel_w):
                src = self._padded[
                    :,
                    :,
                    ky : ky + self.out_h * self.stride : self.stride,
                    kx : kx + self.out_w * self.stride : self.stride,
                ].transpose(0, 2, 3, 1)
                self._slab_pairs.append((self._cols6[:, :, :, :, ky, kx], src))

    @property
    def num_rows(self) -> int:
        n = self.input_shape[0]
        return n * self.out_h * self.out_w

    def fill(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``x`` into the plan's column buffer and return it.

        The returned array is the plan's reusable buffer: it is overwritten by
        the next ``fill`` call.
        """
        if x.shape != self.input_shape:
            raise ValueError(
                f"im2col plan built for input shape {self.input_shape}, got {x.shape}"
            )
        self._interior[...] = x
        if self._use_slabs:
            for dst, src in self._slab_pairs:
                np.copyto(dst, src)
        else:
            np.copyto(self._cols6, self._windows)
        return self.cols


class DirectConvPlan:
    """Stride-1 direct-convolution plan over a padded NHWC halo buffer.

    The im2col form materialises a ``(N·out_h·out_w, C·K·K)`` column matrix
    every step — ``K·K`` times the input's size in writes alone, which is what
    dominates the spiking-conv step at bench scale.  This plan instead keeps
    the padded input in channels-last layout and runs one *per-image stacked
    GEMM per kernel tap* over a contiguous flat window of the halo buffer:

    for tap ``(ky, kx)`` the flat element range starting at
    ``(ky·PW + kx)·C`` of a padded image, viewed as ``(L, C)`` rows with
    ``L = (out_h−1)·PW + out_w``, has row ``r = y·PW + x`` aligned with output
    position ``(y, x)`` *independently of the tap* — so all ``K·K`` GEMMs
    accumulate into one ``(N, out_h·PW, out_c)`` buffer whose rows with
    ``x < out_w`` are the convolution result (rows in the halo margin receive
    garbage and are never read).  Total traffic is one input transpose plus
    ``K·K`` reads of the (cache-resident) halo, ~3× cheaper than the column
    fill at VGG geometries.

    The per-tap accumulation reassociates the reduction relative to the
    canonical ``(c, ky, kx)`` im2col ordering, so results match
    :class:`Im2colPlan` + GEMM only to rounding; the simulation engine
    therefore uses this plan on its tolerance-based (float32) path and keeps
    the canonical plan for the float64 exact-match path.
    """

    def __init__(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel: int,
        padding: int,
        out_channels: int,
        dtype: "np.dtype | type" = np.float32,
    ) -> None:
        if batch_size <= 0 or channels <= 0 or height <= 0 or width <= 0:
            raise ValueError(
                f"invalid input geometry ({batch_size}, {channels}, {height}, {width})"
            )
        self.input_shape = (batch_size, channels, height, width)
        self.kernel = int(kernel)
        self.padding = int(padding)
        self.out_channels = int(out_channels)
        self.dtype = np.dtype(dtype)
        self.out_h = conv_output_size(height, kernel, 1, padding)
        self.out_w = conv_output_size(width, kernel, 1, padding)
        self.padded_h = height + 2 * padding
        self.padded_w = width + 2 * padding

        n = batch_size
        # padded NHWC halo; the zero margin is written once and never touched
        # again (run() only overwrites the interior)
        self._halo = np.zeros((n, self.padded_h, self.padded_w, channels), dtype=self.dtype)
        pad = self.padding
        self._interior = (
            self._halo[:, pad : pad + height, pad : pad + width, :] if pad else self._halo
        )

        #: window row count: output row r = y·PW + x for y < out_h, x < out_w
        self.window_rows = (self.out_h - 1) * self.padded_w + self.out_w
        self._zbuf = np.empty((n, self.out_h * self.padded_w, self.out_channels), dtype=self.dtype)
        self._tap_z = np.empty((n, self.window_rows, self.out_channels), dtype=self.dtype)
        # (N, out_c, out_h, out_w) view of the valid zbuf rows, built once
        self._z_view = self._zbuf.reshape(
            n, self.out_h, self.padded_w, self.out_channels
        )[:, :, : self.out_w, :].transpose(0, 3, 1, 2)

    @property
    def z_view(self) -> np.ndarray:
        """The (N, out_c, out_h, out_w) output view over the plan's buffer."""
        return self._z_view

    def run(
        self, x: np.ndarray, taps: np.ndarray, bias: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Convolve ``x`` (N, C, H, W) with per-tap matrices ``taps``.

        Parameters
        ----------
        x:
            Input batch in the engine's channels-first layout.
        taps:
            ``(K·K, C, out_c)`` stack of tap matrices (``weight[o, c, ky, kx]``
            transposed to ``taps[ky·K + kx, c, o]``).
        bias:
            Optional per-output-channel bias added once.

        Returns
        -------
        The plan's reusable ``(N, out_c, out_h, out_w)`` output view — valid
        until the next ``run``.
        """
        if x.shape != self.input_shape:
            raise ValueError(
                f"direct conv plan built for input shape {self.input_shape}, got {x.shape}"
            )
        n, c, _, _ = self.input_shape
        if taps.shape != (self.kernel * self.kernel, c, self.out_channels):
            raise ValueError(
                f"taps shape {taps.shape} does not match "
                f"({self.kernel * self.kernel}, {c}, {self.out_channels})"
            )
        # transpose builds the NHWC view directly (moveaxis pays an extra
        # normalisation pass on this hot path)
        self._interior[...] = x.transpose(0, 2, 3, 1)
        flat = self._halo.reshape(n, self.padded_h * self.padded_w * c)
        rows = self.window_rows
        zbuf = self._zbuf[:, :rows]
        tap_z = self._tap_z
        for tap_index in range(self.kernel * self.kernel):
            ky, kx = divmod(tap_index, self.kernel)
            offset = (ky * self.padded_w + kx) * c
            window = flat[:, offset : offset + rows * c].reshape(n, rows, c)
            if tap_index == 0:
                np.matmul(window, taps[tap_index], out=zbuf)
            else:
                np.matmul(window, taps[tap_index], out=tap_z)
                zbuf += tap_z
        if bias is not None:
            zbuf += bias
        return self._z_view


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back to an image batch, accumulating overlapping regions.

    This is the adjoint of :func:`im2col` and is used by the convolution and
    pooling backward passes.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded_h = h + 2 * padding
    padded_w = w + 2 * padding

    cols_reshaped = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, padded_h, padded_w), dtype=np.float64)
    for ky in range(kernel_h):
        y_max = ky + stride * out_h
        for kx in range(kernel_w):
            x_max = kx + stride * out_w
            x_padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols_reshaped[:, :, ky, kx, :, :]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded
