"""Wire types of the serving subsystem.

The serving engine and the HTTP front end exchange three kinds of values:

* :class:`ClassifyResult` — the answer to one classify request: prediction,
  per-class scores, the early-exit freeze step, and timing (queue wait,
  batch execution time, and the size of the micro-batch the request rode in);
* :func:`scheme_listing` — the ``/v1/schemes`` response body, rendered from
  the registry's :func:`~repro.core.registry.scheme_metadata` rows (the same
  single source of truth behind ``repro --list-schemes``);
* :func:`parse_image` — JSON payload → validated input array for one image.

Everything here is plain data (dataclasses, dicts, lists) so the engine can
be driven in-process by tests and examples without any HTTP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import registry


@dataclass(frozen=True)
class ClassifyResult:
    """Answer to one classify request.

    Attributes
    ----------
    prediction:
        Predicted class index (argmax of ``scores``).
    scores:
        Accumulated per-class output scores after the final simulated step.
    scheme:
        The ``input-hidden`` notation the request was served under.
    frozen_at:
        Step at which converged-image early exit froze this image
        (``None`` when early exit is disabled or the image never froze).
    batch_size:
        Size of the micro-batch this request was coalesced into (> 1 means
        the scheduler amortised one simulation across several requests).
    queue_ms / batch_ms:
        Milliseconds the request waited in the queue, and the wall-clock
        duration of the shared batch simulation it rode in.
    time_steps:
        Simulation horizon the scores were accumulated over.
    replica:
        Index of the session replica that simulated the batch (0 on a
        single-replica server).
    """

    prediction: int
    scores: List[float] = field(default_factory=list)
    scheme: str = ""
    frozen_at: Optional[int] = None
    batch_size: int = 1
    queue_ms: float = 0.0
    batch_ms: float = 0.0
    time_steps: int = 0
    replica: int = 0

    @property
    def total_ms(self) -> float:
        """Queue wait plus batch execution time."""
        return self.queue_ms + self.batch_ms

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``/v1/classify`` response body)."""
        return {
            "prediction": int(self.prediction),
            "scores": [float(s) for s in self.scores],
            "scheme": self.scheme,
            "frozen_at": None if self.frozen_at is None else int(self.frozen_at),
            "batch_size": int(self.batch_size),
            "queue_ms": round(float(self.queue_ms), 3),
            "batch_ms": round(float(self.batch_ms), 3),
            "total_ms": round(float(self.total_ms), 3),
            "time_steps": int(self.time_steps),
            "replica": int(self.replica),
        }


def scheme_listing() -> Dict[str, object]:
    """The ``/v1/schemes`` response body, straight from the registry.

    Shares :func:`repro.core.registry.scheme_metadata` /
    :func:`~repro.core.registry.notation_help` with the CLI's
    ``--list-schemes`` so the two listings cannot drift apart.
    """
    return {
        "codings": registry.scheme_metadata(),
        "input_codings": registry.input_codings(),
        "hidden_codings": registry.hidden_codings(),
        "notation": registry.notation_help(),
    }


def parse_image(payload: object, input_shape: Tuple[int, ...]) -> np.ndarray:
    """Validate one JSON ``image`` payload against the model's input shape.

    Accepts a nested list (or anything array-like) shaped either exactly like
    the model input or flat with the right number of elements; returns a
    float64 array (the engine casts to the simulation dtype when batching).
    NaN and ±inf pixels are rejected (``json.loads`` accepts ``NaN`` and
    ``Infinity``, and numpy parses the string ``"nan"``).
    """
    try:
        image = np.asarray(payload, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"image payload is not numeric: {exc}") from exc
    if not np.isfinite(image).all():
        raise ValueError("image payload contains non-finite values (NaN or infinity)")
    if image.shape == input_shape:
        return image
    expected = int(np.prod(input_shape))
    if image.ndim == 1 and image.size == expected:
        return image.reshape(input_shape)
    raise ValueError(
        f"image shape {image.shape} does not match model input {input_shape} "
        f"(flat arrays of {expected} values are also accepted)"
    )
