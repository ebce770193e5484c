"""Spike recording during SNN simulation.

Two levels of detail are supported:

* **counts** — number of spikes per layer per time step (always recorded);
  this is all that Table 1 / Table 2 (spike counts, spiking density, energy)
  need.
* **trains** — full boolean spike trains for a sampled subset of neurons per
  layer; needed by the spike-pattern analyses (ISI histograms of Fig. 1,
  burst-length composition of Fig. 2, the firing rate / regularity scatter of
  Fig. 5).  Sampling mirrors the paper, which analyses 10% of the neurons of
  each layer.

Storage strategy
----------------
When the simulation horizon is known up front the engine calls
:meth:`SpikeRecord.preallocate` and every :class:`LayerRecord` records into
arrays sized to ``time_steps`` (an int64 count vector and, when trains are
recorded, one ``(T, batch, n_sampled)`` boolean block) — no per-step list
appends or allocations.  Records used standalone (without ``preallocate``)
fall back to growable Python lists with identical semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.utils.rng import SeedLike, as_rng


class LayerRecord:
    """Recorded spiking activity of one layer.

    Parameters
    ----------
    name, num_neurons, is_spiking:
        Identity of the recorded layer.
    """

    def __init__(self, name: str, num_neurons: int, is_spiking: bool) -> None:
        self.name = name
        self.num_neurons = int(num_neurons)
        self.is_spiking = bool(is_spiking)
        #: flat indices (within a sample's neuron array) of the sampled neurons
        self.sampled_indices: Optional[np.ndarray] = None
        #: batch size of the recorded simulation (set by :meth:`preallocate`)
        self.batch_size: int = 1
        # growable fallback storage (standalone use)
        self._count_list: List[int] = []
        self._train_steps: List[np.ndarray] = []
        # preallocated storage (engine use)
        self._counts: Optional[np.ndarray] = None
        self._trains: Optional[np.ndarray] = None
        self._cursor = 0

    # -- setup -----------------------------------------------------------
    def preallocate(self, time_steps: int, batch_size: int, record_trains: bool) -> None:
        """Switch to preallocated storage for a run of known length."""
        if time_steps <= 0:
            raise ValueError(f"time_steps must be positive, got {time_steps}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = int(batch_size)
        self._counts = np.zeros(time_steps, dtype=np.int64)
        self._cursor = 0
        self._count_list = []
        self._train_steps = []
        n_sampled = 0 if self.sampled_indices is None else int(self.sampled_indices.size)
        if record_trains and n_sampled:
            self._trains = np.zeros((time_steps, batch_size, n_sampled), dtype=bool)
        else:
            self._trains = None

    # -- recording -------------------------------------------------------
    def record_step(
        self,
        spikes: Optional[np.ndarray],
        record_trains: bool,
        batch_indices: Optional[np.ndarray] = None,
        count: Optional[int] = None,
    ) -> None:
        """Record one simulation step given the layer's boolean spike array.

        ``batch_indices`` maps the rows of ``spikes`` back to the original
        batch when the engine's early exit has shrunk the simulated batch;
        frozen images keep their (all-zero) train rows.  ``count`` is an
        optional precomputed ``np.count_nonzero(spikes)`` (the engine already
        counts spikes for its dispatch hints), skipping a recount here.
        """
        counts = self._counts
        if counts is not None:
            t = self._cursor
            if t >= counts.shape[0]:
                raise RuntimeError(
                    f"{self.name}: recorded more steps than the preallocated "
                    f"{counts.shape[0]}"
                )
            if spikes is not None:
                counts[t] = count if count is not None else np.count_nonzero(spikes)
                # preallocate() only builds a train block when trains are
                # recorded and this layer has sampled neurons
                trains = self._trains
                if record_trains and trains is not None:
                    flat = spikes.reshape(spikes.shape[0], -1)
                    if batch_indices is None or flat.shape[0] == trains.shape[1]:
                        np.take(flat, self.sampled_indices, axis=1, out=trains[t])
                    else:
                        trains[t, batch_indices] = flat[:, self.sampled_indices]
            # a None / non-spiking step leaves the preallocated zeros in place
            self._cursor = t + 1
            return
        record_train = record_trains and self.sampled_indices is not None and self.sampled_indices.size
        # growable fallback (standalone LayerRecord use)
        if spikes is None:
            self._count_list.append(0)
            if record_train:
                self._train_steps.append(
                    np.zeros((self.batch_size, len(self.sampled_indices)), dtype=bool)
                )
            return
        self._count_list.append(
            int(count) if count is not None else int(np.count_nonzero(spikes))
        )
        if record_train:
            flat = spikes.reshape(spikes.shape[0], -1)
            if batch_indices is None or flat.shape[0] == self.batch_size:
                self._train_steps.append(flat[:, self.sampled_indices].copy())
            else:
                step_trains = np.zeros((self.batch_size, len(self.sampled_indices)), dtype=bool)
                step_trains[batch_indices] = flat[:, self.sampled_indices]
                self._train_steps.append(step_trains)

    # -- views -----------------------------------------------------------
    @property
    def spike_counts(self) -> "np.ndarray | List[int]":
        """Spikes emitted by the whole layer at each recorded step, length T."""
        if self._counts is not None:
            return self._counts[: self._cursor]
        return self._count_list

    @property
    def total_spikes(self) -> int:
        if self._counts is not None:
            return int(self._counts[: self._cursor].sum())
        return int(sum(self._count_list))

    def spike_trains(self) -> np.ndarray:
        """Sampled spike trains as a boolean array of shape (T, batch, n_sampled)."""
        if self._trains is not None:
            return self._trains[: self._cursor]
        if not self._train_steps:
            return np.zeros((0, 0, 0), dtype=bool)
        return np.stack(self._train_steps, axis=0)

    def spike_trains_flat(self) -> np.ndarray:
        """Sampled spike trains as shape (T, batch * n_sampled) boolean array."""
        trains = self.spike_trains()
        if trains.size == 0:
            return np.zeros((0, 0), dtype=bool)
        return trains.reshape(trains.shape[0], -1)


class SpikeRecord:
    """Container aggregating :class:`LayerRecord` objects for one simulation.

    Parameters
    ----------
    sample_fraction:
        Fraction of each spiking layer's neurons whose full spike trains are
        recorded (only when ``record_trains`` is enabled on the network run).
    """

    def __init__(
        self,
        sample_fraction: float = 0.1,
        record_trains: bool = False,
        seed: SeedLike = 0,
    ) -> None:
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
        self.sample_fraction = sample_fraction
        self.record_trains = record_trains
        self._rng = as_rng(seed)
        self.layers: List[LayerRecord] = []
        self.input_record: Optional[LayerRecord] = None
        self.time_steps = 0

    # -- setup -----------------------------------------------------------
    def register_input(self, num_neurons: int) -> LayerRecord:
        """Register the input layer (encoder spikes)."""
        record = LayerRecord(name="input", num_neurons=num_neurons, is_spiking=True)
        record.sampled_indices = self._sample_indices(num_neurons)
        self.input_record = record
        return record

    def register_layer(self, name: str, num_neurons: int, is_spiking: bool) -> LayerRecord:
        """Register one network layer and return its record."""
        record = LayerRecord(name=name, num_neurons=num_neurons, is_spiking=is_spiking)
        if is_spiking and num_neurons > 0:
            record.sampled_indices = self._sample_indices(num_neurons)
        self.layers.append(record)
        return record

    def preallocate(self, time_steps: int, batch_size: int) -> None:
        """Preallocate every registered record for a run of ``time_steps``."""
        for record in self.all_records:
            record.preallocate(time_steps, batch_size, self.record_trains)

    def _sample_indices(self, num_neurons: int) -> np.ndarray:
        if not self.record_trains or num_neurons == 0:
            return np.array([], dtype=np.int64)
        count = max(1, int(round(num_neurons * self.sample_fraction)))
        return np.sort(self._rng.choice(num_neurons, size=count, replace=False))

    # -- aggregation -----------------------------------------------------
    def advance(self) -> None:
        """Mark the end of one simulation time step."""
        self.time_steps += 1

    @property
    def all_records(self) -> List[LayerRecord]:
        records = list(self.layers)
        if self.input_record is not None:
            records = [self.input_record] + records
        return records

    def total_spikes(self, include_input: bool = True) -> int:
        """Total number of spikes across the run."""
        records = self.all_records if include_input else self.layers
        return int(sum(record.total_spikes for record in records))

    def total_neurons(self, include_input: bool = True) -> int:
        """Total number of spiking neurons per sample."""
        records = self.all_records if include_input else self.layers
        return int(sum(record.num_neurons for record in records if record.is_spiking))

    def spikes_per_step(self, include_input: bool = True) -> np.ndarray:
        """Network-wide spike counts per time step, shape ``(T,)``."""
        records = self.all_records if include_input else self.layers
        if not records or self.time_steps == 0:
            return np.zeros(0, dtype=np.int64)
        totals = np.zeros(self.time_steps, dtype=np.int64)
        for record in records:
            counts = np.asarray(record.spike_counts[: self.time_steps], dtype=np.int64)
            if counts.size:
                totals[: counts.size] += counts
        return totals

    def cumulative_spikes(self, include_input: bool = True) -> np.ndarray:
        """Cumulative network-wide spike counts, shape ``(T,)``."""
        return np.cumsum(self.spikes_per_step(include_input=include_input))

    def per_layer_totals(self) -> Dict[str, int]:
        """Mapping layer name → total spikes (includes the input layer)."""
        return {record.name: record.total_spikes for record in self.all_records}
