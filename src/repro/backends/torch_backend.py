"""Optional ``torch`` backend: GEMM/gather/neuron kernels on PyTorch.

The module imports cleanly without PyTorch installed — the registered factory
performs the lazy import and raises
:class:`~repro.backends.registry.BackendUnavailableError` with an actionable
message when it is missing, so ``repro --list-backends`` reports the backend
as unavailable instead of the process failing at import time.

Implementation notes
--------------------
The engine's buffers are numpy arrays owned by the layers;
``torch.from_numpy`` wraps them zero-copy on CPU, so the torch kernels write
straight into the engine's preallocated buffers and the zero-allocation
contract holds.  The first iteration keeps the cached im2col / direct-conv
*plans* from the numpy reference backend (their fills are strided copies, not
GEMMs) and moves the GEMM, gather and integrate-and-fire kernels to torch —
the pieces a GPU build accelerates.  Like every non-reference backend it is
held to prediction-level agreement with the numpy backend, not bit-identity.
"""

from __future__ import annotations

import numpy as np

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import BackendUnavailableError, register_backend


class TorchBackend(NumpyBackend):
    """PyTorch CPU kernels over the engine's numpy buffers (zero-copy)."""

    name = "torch"
    description = "PyTorch GEMM, gather and IF-neuron kernels; requires torch"

    def __init__(self) -> None:
        import torch

        self._torch = torch

    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        torch = self._torch
        torch.matmul(
            torch.from_numpy(np.ascontiguousarray(a)),
            torch.from_numpy(np.ascontiguousarray(b)),
            out=torch.from_numpy(out),
        )
        return out

    def take_flat(
        self, a: np.ndarray, flat_indices: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        torch = self._torch
        torch.take(
            torch.from_numpy(np.ascontiguousarray(a)),
            torch.from_numpy(np.ascontiguousarray(flat_indices)),
            out=torch.from_numpy(out),
        )
        return out

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
        torch = self._torch
        v_t = torch.from_numpy(v_mem)
        th_t = torch.from_numpy(np.ascontiguousarray(threshold, dtype=v_mem.dtype))
        sig_t = torch.from_numpy(signals)
        amp_t = torch.from_numpy(amplitudes)
        spikes_t = torch.from_numpy(spikes)
        v_t += torch.from_numpy(np.ascontiguousarray(z, dtype=v_mem.dtype))
        torch.ge(v_t, th_t, out=spikes_t)
        sig_t.copy_(spikes_t)
        torch.mul(th_t, sig_t, out=amp_t)
        if subtract_reset:
            v_t -= amp_t
        else:
            v_t.masked_fill_(spikes_t, v_rest)
        if not allow_negative:
            torch.clamp_(v_t, min=v_rest)
        return int(torch.count_nonzero(spikes_t).item())

    def count_nonzero(self, x: np.ndarray) -> int:
        return int(self._torch.count_nonzero(self._torch.from_numpy(x)).item())


@register_backend(
    "torch",
    description=TorchBackend.description,
)
def _build_torch_backend() -> TorchBackend:
    try:
        import torch  # noqa: F401
    except ImportError as exc:
        raise BackendUnavailableError(
            "the 'torch' backend requires PyTorch, which is not installed in "
            "this environment (pip install torch); the 'numpy' backend is "
            "always available"
        ) from exc
    return TorchBackend()
