"""Parallel Dynamically Dimensioned Search (paper §VI, Alg. 2).

DDS [Tolson & Shoemaker 2007] searches a high-dimensional discrete space
by perturbing a shrinking random subset of dimensions of the current
best point: early iterations move many dimensions (global exploration),
late iterations move few (local refinement).  The paper parallelises it
with ``n_threads`` logical searchers that share a global best point at a
per-iteration barrier, each thread group using a different perturbation
radius ``r`` so threads do not explore the same neighbourhood (§VI-B).

The implementation evaluates all threads' candidate points of a step as
one vectorised batch when the objective provides ``evaluate_batch``
(see :class:`repro.core.objective.SystemObjective`) — the moral
equivalent of the paper's multi-threaded C++, and what keeps a full
search in tens of milliseconds of interpreter time.

The decision vector has one dimension per batch job; each dimension's
value is a joint-configuration index in ``[0, n_confs)``.  Out-of-range
perturbations are *reflected* about the violated bound (Alg. 2 lines
14-15).  A step draws its randoms in a fixed order (``random``, the
conditional ``integers``, ``standard_normal``), so a seed fixes the
whole search; ``tests/core/test_dds_oracle.py`` pins the step, and the
search, to a straightforward reference bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.deadline import DecisionBudget
from repro.telemetry.tracer import NULL_TRACER

Objective = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class DDSParams:
    """The paper's tuned parameters (Fig. 6)."""

    initial_random_points: int = 50
    perturbation_radii: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5)
    points_per_iteration: int = 10
    max_iter: int = 40
    n_threads: int = 16

    def __post_init__(self) -> None:
        if self.initial_random_points <= 0:
            raise ValueError("initial_random_points must be positive")
        if not self.perturbation_radii:
            raise ValueError("need at least one perturbation radius")
        if any(r <= 0 for r in self.perturbation_radii):
            raise ValueError("perturbation radii must be positive")
        if self.points_per_iteration <= 0:
            raise ValueError("points_per_iteration must be positive")
        if self.max_iter <= 1:
            raise ValueError("max_iter must exceed 1")
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")


@dataclass
class DDSResult:
    """Best point found plus the exploration trace (for Fig. 10a)."""

    best_x: np.ndarray
    best_objective: float
    #: Objective of the global best after each iteration.
    history: List[float] = field(default_factory=list)
    #: Every point evaluated [N x n_dims] and its objective [N]; empty
    #: unless the search ran with ``record_explored=True``.
    explored_x: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=int)
    )
    explored_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    evaluations: int = 0


class DDSSearch:
    """Parallel DDS over discrete decision vectors."""

    #: Telemetry tracer; the shared no-op unless a session attaches one.
    tracer = NULL_TRACER
    #: Decision-budget meter (repro.core.deadline); when a controller
    #: attaches one, every search charges its candidate evaluations
    #: against the current quantum.
    budget: Optional[DecisionBudget] = None

    def __init__(self, params: DDSParams = DDSParams()) -> None:
        self.params = params

    def search(
        self,
        objective: Objective,
        n_dims: int,
        n_confs: int,
        rng: np.random.Generator,
        fixed: Optional[Sequence[Tuple[int, int]]] = None,
        initial: Optional[np.ndarray] = None,
        record_explored: bool = False,
    ) -> DDSResult:
        """Maximise ``objective`` over ``[0, n_confs)**n_dims``.

        ``fixed`` pins (dimension, value) pairs — used to hold the LC
        service's configuration constant while batch dimensions are
        searched.  ``initial`` seeds one starting point (e.g. the
        previous quantum's decision) alongside the random ones.
        """
        with self.tracer.span(
            "dds.search", category="dds", n_dims=n_dims
        ) as span:
            result = self._search(
                objective, n_dims, n_confs, rng, fixed, initial,
                record_explored,
            )
            span.set(evaluations=result.evaluations)
            if self.budget is not None:
                self.budget.charge(result.evaluations, phase="dds.search")
            return result

    def _search(
        self,
        objective: Objective,
        n_dims: int,
        n_confs: int,
        rng: np.random.Generator,
        fixed: Optional[Sequence[Tuple[int, int]]] = None,
        initial: Optional[np.ndarray] = None,
        record_explored: bool = False,
    ) -> DDSResult:
        if n_dims <= 0:
            raise ValueError("n_dims must be positive")
        if n_confs <= 1:
            raise ValueError("n_confs must exceed 1")
        params = self.params
        fixed = list(fixed or [])
        fixed_dims = {d for d, _ in fixed}
        free_dims = np.array(
            [d for d in range(n_dims) if d not in fixed_dims], dtype=int
        )
        n_free = free_dims.size
        result = DDSResult(best_x=np.zeros(n_dims, dtype=int),
                           best_objective=-np.inf)
        batch_eval = getattr(objective, "evaluate_batch", None)
        explored: List[Tuple[np.ndarray, np.ndarray]] = []

        def apply_fixed(xs: np.ndarray) -> np.ndarray:
            for d, v in fixed:
                xs[..., d] = v
            return xs

        def evaluate_many(xs: np.ndarray) -> np.ndarray:
            if batch_eval is not None:
                values = np.asarray(batch_eval(xs), dtype=float)
            else:
                values = np.array([float(objective(x)) for x in xs])
            result.evaluations += xs.shape[0]
            if record_explored:
                # Every block handed in here is a fresh array the loop
                # never writes to again, so keeping references is safe.
                explored.append((xs, values))
            return values

        if n_free == 0:
            x = apply_fixed(np.zeros((1, n_dims), dtype=int))[0]
            value = evaluate_many(x[None, :])[0]
            return DDSResult(best_x=x, best_objective=float(value),
                             history=[float(value)], evaluations=1)

        # Initial random population (Alg. 2 lines 5-6).
        candidates = apply_fixed(
            rng.integers(0, n_confs,
                         size=(params.initial_random_points, n_dims))
        )
        if initial is not None:
            seeded = apply_fixed(
                np.asarray(initial, dtype=int).copy()[None, :]
            )
            candidates = np.vstack([candidates, seeded])
        values = evaluate_many(candidates)
        best = int(np.argmax(values))
        best_x = candidates[best].copy()
        best_val = float(values[best])

        radii = np.array([
            params.perturbation_radii[
                min(
                    t // max(1, params.n_threads // len(params.perturbation_radii)),
                    len(params.perturbation_radii) - 1,
                )
            ]
            for t in range(params.n_threads)
        ])
        # Per-thread step scale; the product is formed before it meets
        # the normal draws, as (radius * n_confs) * N(0, 1).
        step_scale = radii[:, None] * n_confs
        # With no fixed dimension every column is perturbed, which lets
        # _perturb_batch skip the column gather and scatter.
        perturbed = free_dims if fixed else None

        for iteration in range(1, params.max_iter + 1):
            # Perturbation probability shrinks with iteration (line 10).
            prob = 1.0 - math.log(iteration) / math.log(params.max_iter)
            prob = max(prob, 1.0 / n_free)
            local_x = np.repeat(best_x[None, :], params.n_threads, axis=0)
            local_val = np.full(params.n_threads, best_val)
            for _ in range(params.points_per_iteration):
                new_x = self._perturb_batch(
                    local_x, perturbed, prob, step_scale, n_confs, rng
                )
                if fixed:
                    apply_fixed(new_x)
                new_val = evaluate_many(new_x)
                improved = new_val > local_val
                np.copyto(local_x, new_x, where=improved[:, None])
                np.copyto(local_val, new_val, where=improved)
            # Barrier: thread 0 aggregates (lines 18-21).
            top = int(np.argmax(local_val))
            if local_val[top] > best_val:
                best_val = float(local_val[top])
                best_x = local_x[top].copy()
            result.history.append(best_val)

        result.best_x = best_x
        result.best_objective = best_val
        if explored:
            result.explored_x = np.concatenate([x for x, _ in explored])
            result.explored_values = np.concatenate([v for _, v in explored])
        return result

    @staticmethod
    def _perturb_batch(
        local_x: np.ndarray,
        free_dims: Optional[np.ndarray],
        prob: float,
        step_scale: np.ndarray,
        n_confs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Perturb each thread's point on a random dimension subset.

        ``free_dims`` lists the perturbable columns, or is ``None`` when
        every column is.  ``step_scale`` is each thread's
        ``radius * n_confs`` as a column [n_threads x 1].  Out-of-range
        values are reflected about the violated bound.  Returns a new
        array; ``local_x`` is left untouched.
        """
        n_threads = local_x.shape[0]
        n_free = local_x.shape[1] if free_dims is None else free_dims.size
        chosen = rng.random((n_threads, n_free)) < prob
        # Every thread must perturb at least one dimension (Alg. 2).
        hit = np.logical_or.reduce(chosen, axis=1)
        if not hit.all():
            rows = np.flatnonzero(~hit)
            chosen[rows, rng.integers(0, n_free, size=rows.size)] = True
        steps = rng.standard_normal((n_threads, n_free))
        steps *= step_scale
        # Unchosen steps become +-0, which leave an integral value as is.
        steps *= chosen
        if free_dims is None:
            values = local_x.astype(float)
        else:
            values = local_x[:, free_dims].astype(float)
        values += steps
        upper = n_confs - 1
        # Reflect about 0, then about ``upper`` (min(v, 2u - v) is v
        # below the bound and its mirror above it), then clamp what a
        # long step carried past both bounds.  Reflecting below ``upper``
        # leaves nothing above it, so only the lower clamp remains.
        np.abs(values, out=values)
        np.minimum(values, 2 * upper - values, out=values)
        np.maximum(values, 0, out=values)
        np.rint(values, out=values)
        if free_dims is None:
            return values.astype(int)
        new_x = local_x.copy()
        new_x[:, free_dims] = values
        return new_x
