"""Reconstruction matrices: ground truth, observations, and training rows.

CuttleSys maintains three application × configuration matrices —
throughput (BIPS, batch jobs), tail latency (LC services), and power —
whose rows are either *known* applications characterised offline on all
108 joint configurations, or currently-running applications observed on
just a couple of configurations (two profiling samples plus whatever
steady states they have visited).  :class:`ObservedMatrix` is the sparse
container the controller fills at runtime; :class:`TruthTables`
pre-computes the noise-free ground truth the oracle baselines and the
accuracy experiments (Fig. 5) compare against.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import InitVar, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.sim.perf import AppProfile, PerformanceModel
from repro.sim.power import PowerModel
from repro.workloads.latency_critical import LCService, tail_latency_rows


def known_column_stats(known: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column median and MAD of a known block (zeros when empty).

    ``np.median(known, axis=0)`` equals the per-column ``np.median``
    bit for bit, so these are the statistics the outlier test used to
    recompute for every sample.
    """
    if len(known) == 0:
        return np.zeros(known.shape[1]), np.zeros(known.shape[1])
    median = np.median(known, axis=0)
    return median, np.median(np.abs(known - median), axis=0)


@dataclass
class ObservedMatrix:
    """A sparse ratings matrix: known rows plus runtime observations.

    ``values`` is dense with ``mask`` marking which entries are
    observed; unobserved entries hold zeros and are ignored by the
    reconstruction.  The ``known`` block (offline-characterised rows)
    becomes the first ``n_known`` rows, fully observed and read-only;
    the remaining rows are learned online.
    """

    n_rows: int
    n_cols: int = N_JOINT_CONFIGS
    known: InitVar[Optional[np.ndarray]] = None
    values: np.ndarray = field(init=False)
    mask: np.ndarray = field(init=False)
    #: Quanta since each online observation was taken (0 = this quantum).
    age: np.ndarray = field(init=False)
    #: Leading rows installed from the ``known`` block (never expire).
    n_known: int = field(init=False)
    #: Per-column median of the known block (outlier screening).
    known_median: np.ndarray = field(init=False)
    #: Per-column median absolute deviation of the known block.
    known_mad: np.ndarray = field(init=False)

    def __post_init__(self, known: Optional[np.ndarray]) -> None:
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.values = np.zeros((self.n_rows, self.n_cols))
        self.mask = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        self.age = np.zeros((self.n_rows, self.n_cols), dtype=int)
        known = np.zeros((0, self.n_cols)) if known is None else known
        known = np.asarray(known, dtype=float)
        if known.ndim != 2 or known.shape[1] != self.n_cols or (
            len(known) > self.n_rows
        ):
            raise ValueError(f"bad known block shape {known.shape}")
        self.n_known = len(known)
        self.values[: self.n_known] = known
        self.mask[: self.n_known] = True
        # The known block is read-only from here on, so its column
        # statistics are built once, with the matrix.
        self.known_median, self.known_mad = known_column_stats(known)

    def known_digest(self) -> str:
        """sha256 of the known block (snapshots check it on restore)."""
        block = np.ascontiguousarray(self.values[: self.n_known])
        return hashlib.sha256(block.tobytes()).hexdigest()

    def _check_online(self, row: int) -> None:
        if row < self.n_known:
            raise ValueError(f"row {row} is a read-only known row")

    def observe(self, row: int, col: int, value: float) -> None:
        """Record one runtime measurement (later samples overwrite)."""
        self._check_online(row)
        if not np.isfinite(value):
            raise ValueError(f"observation must be finite, got {value}")
        self.values[row, col] = value
        self.mask[row, col] = True
        self.age[row, col] = 0

    def observed_count(self, row: int) -> int:
        """Number of observed entries in ``row``."""
        return int(np.sum(self.mask[row]))

    def tick(self) -> None:
        """One decision quantum passes: age every runtime observation."""
        online = slice(self.n_known, None)
        self.age[online][self.mask[online]] += 1

    def expire(self, max_age: int) -> int:
        """Drop runtime observations older than ``max_age`` quanta.

        Offline-characterised (known) rows never expire.  Under phase
        drift, stale steady-state samples describe behaviour the job no
        longer exhibits; expiring them keeps the reconstruction anchored
        to recent reality.  Returns the number of entries dropped.
        """
        if max_age < 0:
            raise ValueError("max_age must be non-negative")
        online = slice(self.n_known, None)
        stale = self.mask[online] & (self.age[online] > max_age)
        dropped = int(np.sum(stale))
        self.mask[online][stale] = False
        self.values[online][stale] = 0.0
        self.age[online][stale] = 0
        return dropped

    def clear_row(self, row: int) -> None:
        """Forget every runtime observation in ``row`` (job churn)."""
        self._check_online(row)
        self.values[row] = 0.0
        self.mask[row] = False
        self.age[row] = 0

    def copy(self) -> "ObservedMatrix":
        """Deep copy (used to snapshot before what-if reconstructions)."""
        return copy.deepcopy(self)


def throughput_rows(
    profiles: Sequence[AppProfile], perf: PerformanceModel
) -> np.ndarray:
    """Noise-free BIPS of each profile across all joint configurations."""
    return np.vstack([perf.bips_row(p) for p in profiles])


def power_rows(
    profiles: Sequence[AppProfile], power: PowerModel
) -> np.ndarray:
    """Noise-free core power of each profile across joint configurations."""
    return np.vstack([power.power_row(p) for p in profiles])


def latency_row(
    service: LCService,
    perf: PerformanceModel,
    load: float,
    n_cores: int,
) -> np.ndarray:
    """p99 latency of one service across all 108 joint configurations."""
    return tail_latency_rows([(service, load)], perf, n_cores)[0]


def latency_training_rows(
    services: Sequence[LCService],
    loads: Sequence[float],
    perf: PerformanceModel,
    n_cores: int,
    exclude: Optional[Tuple[str, float]] = None,
) -> Tuple[np.ndarray, List[Tuple[str, float]]]:
    """Offline latency characterisations of (service, load) combinations.

    The latency matrix's "known applications" are previously-seen
    services at a grid of loads.  ``exclude`` removes one (name, load)
    pair so a service under test never trains on its own exact row.
    Returns the matrix and the (name, load) key per row.  All rows are
    built in one array pass (:func:`tail_latency_rows`).
    """
    requests = [
        (service, load)
        for service in services
        for load in loads
        if exclude is None
        or not (service.name == exclude[0] and abs(load - exclude[1]) < 1e-9)
    ]
    if not requests:
        raise ValueError("latency training set is empty")
    keys = [(service.name, load) for service, load in requests]
    return tail_latency_rows(requests, perf, n_cores), keys


@dataclass(frozen=True)
class TruthTables:
    """Noise-free per-job metric tables for one machine/workload.

    ``batch_bips``/``batch_power`` are [n_batch x 108]; ``lc_latency``
    and ``lc_power`` are dictionaries keyed by (load, n_cores) filled
    lazily by :meth:`for_machine`-style helpers in the experiments.
    """

    batch_bips: np.ndarray
    batch_power: np.ndarray

    @classmethod
    def build(
        cls,
        profiles: Sequence[AppProfile],
        perf: PerformanceModel,
        power: PowerModel,
    ) -> "TruthTables":
        """Compute both batch tables in one pass."""
        return cls(
            batch_bips=throughput_rows(profiles, perf),
            batch_power=power_rows(profiles, power),
        )
