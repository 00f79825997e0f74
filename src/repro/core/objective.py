"""The optimisation objective of §IV-A / §VI-A.

Maximise the geometric mean of batch throughput (Eq. 1) subject to the
power budget (Eq. 2), the LLC way budget (Eq. 3), and the QoS of the
latency-critical service (Eq. 4; handled outside the search by fixing
the LC configuration first).  Constraint violations are folded into the
objective as *soft penalties* so points slightly over budget are not
discarded outright (§VI-A)::

    objective(x) = gmean(BIPS) - penalty_power * excess_power(x)
                               - penalty_cache * excess_ways(x)

(The paper's formula is written with ``maxPower - Power``; as printed
that would reward high power, so we penalise the excess, which is the
evident intent.)

The decision vector ``x`` assigns each batch job a joint-configuration
index in ``[0, 108)``; the LC service's contribution (cores, power,
ways) is folded in as a fixed reservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.sim.coreconfig import CACHE_ALLOCS, N_CACHE_ALLOCS, N_JOINT_CONFIGS

#: Cache ways of each joint index (shape [108]); used vectorised.
_WAYS_BY_JOINT = np.array(
    [CACHE_ALLOCS[i % N_CACHE_ALLOCS] for i in range(N_JOINT_CONFIGS)]
)


@dataclass(frozen=True)
class SystemObjective:
    """Evaluates candidate decision vectors for the batch jobs.

    ``bips`` and ``power`` are the (reconstructed) per-job metric
    tables, shape [n_jobs x 108].  ``reserved_power`` and
    ``reserved_ways`` account for the LC service and uncore;
    ``time_share`` scales throughput when active jobs outnumber batch
    cores (core relocation).
    """

    bips: np.ndarray
    power: np.ndarray
    max_power: float
    max_ways: float
    reserved_power: float = 0.0
    reserved_ways: float = 0.0
    penalty_power: float = 2.0
    penalty_cache: float = 2.0
    time_share: float = 1.0
    #: Cache ways consumed by each configuration index; ``None`` (the
    #: default for 108-column tables) uses the joint-configuration
    #: mapping.  Pass an explicit array (or zeros) for searches over a
    #: different alphabet, e.g. Flicker's 27 core-only configurations.
    ways_by_config: np.ndarray = None
    #: Per-config table rows and per-job offsets, built by __post_init__.
    _tables: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bips.shape != self.power.shape:
            raise ValueError("bips and power tables must have the same shape")
        if self.bips.ndim != 2:
            raise ValueError("metric tables must be 2-D [n_jobs x n_confs]")
        if self.max_power <= 0:
            raise ValueError("max_power must be positive")
        if self.max_ways <= 0:
            raise ValueError("max_ways must be positive")
        if self.ways_by_config is None:
            if self.bips.shape[1] != N_JOINT_CONFIGS:
                raise ValueError(
                    "ways_by_config is required for tables that are not "
                    f"[n_jobs x {N_JOINT_CONFIGS}]"
                )
            object.__setattr__(self, "ways_by_config", _WAYS_BY_JOINT)
        else:
            object.__setattr__(
                self,
                "ways_by_config",
                np.asarray(self.ways_by_config, dtype=float),
            )
            if self.ways_by_config.shape != (self.bips.shape[1],):
                raise ValueError(
                    "ways_by_config must have one entry per configuration"
                )
        # Per-config tables, built once: rows of log throughput, power,
        # half-way flag (0.5 is an exact sentinel, never computed) and
        # whole ways, flattened job-major for one gather at xs + offsets.
        n_jobs, n_confs = self.bips.shape
        half = self.ways_by_config == 0.5  # repro: noqa[UNIT301]
        tables = np.stack([
            np.log(np.maximum(self.bips * self.time_share, 1e-12)).ravel(),
            self.power.ravel(),
            np.tile(half.astype(float), n_jobs),
            np.tile(np.where(half, 0.0, self.ways_by_config), n_jobs),
        ])
        offsets = np.arange(n_jobs) * n_confs
        for name, table in (("_tables", tables), ("_offsets", offsets)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def n_jobs(self) -> int:
        """Number of batch jobs the decision vector covers."""
        return self.bips.shape[0]

    @property
    def n_confs(self) -> int:
        """Alphabet size of each decision dimension."""
        return self.bips.shape[1]

    def _terms(self, xs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Summed log throughput, chip power and LLC ways at ``xs``."""
        log_bips, power, halves, whole = np.add.reduce(
            self._tables.take(xs + self._offsets, axis=1), axis=-1
        )
        ways = whole + np.ceil(halves / 2.0) + self.reserved_ways
        return log_bips, power + self.reserved_power, ways

    def gmean_bips(self, x: np.ndarray) -> float:
        """Geometric mean of batch throughput for one decision vector."""
        log_bips = self._terms(np.asarray(x, dtype=int))[0]
        return float(np.exp(log_bips / self.n_jobs))

    def total_power(self, x: np.ndarray) -> float:
        """Chip power of one decision vector, including reservations."""
        return float(self.power_and_ways(x)[0])

    def total_ways(self, x: np.ndarray) -> float:
        """Physical LLC ways used, pairing half-way holders (Eq. 3)."""
        return float(self.power_and_ways(x)[1])

    def power_and_ways(self, xs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Chip power and physical LLC ways (Eq. 2-3) of one vector
        [n_jobs] or a batch [k x n_jobs], reservations included."""
        return self._terms(np.asarray(xs, dtype=int))[1:]

    def __call__(self, x: np.ndarray) -> float:
        """Soft-penalty objective of one decision vector."""
        x = np.asarray(x, dtype=int)
        if x.shape != (self.n_jobs,):
            raise ValueError(
                f"decision vector must have shape ({self.n_jobs},), got {x.shape}"
            )
        value = self.gmean_bips(x)
        power, ways = self.power_and_ways(x)
        excess_power = max(0.0, float(power) - self.max_power)
        excess_ways = max(0.0, float(ways) - self.max_ways)
        return (
            value
            - self.penalty_power * excess_power
            - self.penalty_cache * excess_ways
        )

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised objective over ``xs`` of shape [k, n_jobs].

        Semantically identical to calling the objective on each row;
        this is what makes the Python DDS/GA loops run in the
        millisecond range the paper reports for its parallel C++.
        """
        xs = np.asarray(xs, dtype=int)
        if xs.ndim != 2 or xs.shape[1] != self.n_jobs:
            raise ValueError(
                f"batch must be [k x {self.n_jobs}], got {xs.shape}"
            )
        log_bips, power, total_ways = self._terms(xs)
        gmean = np.exp(log_bips / self.n_jobs)
        return (
            gmean
            - self.penalty_power * np.maximum(0.0, power - self.max_power)
            - self.penalty_cache * np.maximum(0.0, total_ways - self.max_ways)
        )

    def is_feasible(self, x: np.ndarray, power_slack: float = 0.0) -> bool:
        """Hard-constraint check (used after the search, §VI-B)."""
        power, ways = self.power_and_ways(x)
        return bool(
            power <= self.max_power + power_slack
            and ways <= self.max_ways + 1e-9
        )
