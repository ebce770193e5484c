"""Leftover entry points of the retired sparse/dense kernel calibration.

Kernel choice in the spiking layers is a pure function of geometry and dtype
(see :mod:`repro.snn.layers`): an all-zero step returns the precomputed bias
response, every other step runs the dense kernel.  Nothing is timed, so there
is no calibration state.  The two functions below survive only because the
repository benchmark (``perfbench/``) still imports them.
"""

from __future__ import annotations

from typing import Dict


def clear_calibration_cache() -> None:
    """Do nothing: there is no calibration cache.

    ``perfbench/workload_offline.py`` calls this before each cold setup; the
    function goes with the next change to ``perfbench/``.
    """


def calibration_cache_snapshot() -> Dict:
    """Return ``{}``: no kernel choice is timed.

    ``perfbench/snn_trace.py`` reads it for the ``sparsity.calibrations``
    metric (now always 0); the function goes with the next change to
    ``perfbench/``.
    """
    return {}
