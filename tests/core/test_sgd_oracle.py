"""Differential oracles for the SGD reconstruction's hoisted invariants.

``PQReconstructor._init_factors`` builds the ridge system of the fully
observed rows once and solves them as one stack, and ``_refine``
computes the masked residual once
per epoch (it is both that epoch's RMSE and the next parallel epoch's
error).  Both must stay bit-identical to the per-row and per-epoch
loops kept below as test-only references: the same factors, the same
diagnostics and the same reconstruction, in parallel and serial mode.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matrices import ObservedMatrix
from repro.core.sgd import PQReconstructor, SGDDiagnostics, SGDParams
from repro.experiments.table2_overheads import _profiled_matrix


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------

def reference_init_factors(self, centred, mask, anchors):
    params = self.params
    n_rows, n_cols = centred.shape
    rank = min(params.rank, n_cols)
    if anchors.size >= 2:
        rank = min(rank, anchors.size)
        _, _, vt = np.linalg.svd(centred[anchors], full_matrices=False)
        p = vt[:rank].T
    else:
        rng = np.random.default_rng(params.seed)
        p = rng.normal(0.0, 1.0 / np.sqrt(n_cols), size=(n_cols, rank))
    q = np.zeros((n_rows, rank))
    for i in range(n_rows):
        obs = np.nonzero(mask[i])[0]
        if obs.size == 0:
            continue
        design = p[obs]
        gram = design.T @ design
        ridge = params.fold_in_ridge * (np.trace(gram) / rank + 1e-12)
        q[i] = np.linalg.solve(
            gram + ridge * np.eye(rank), design.T @ centred[i, obs]
        )
    return q, p


def reference_epoch_parallel(self, centred, mask, q, p):
    eta = self.params.learning_rate
    lam = self.params.regularization
    err = np.where(mask, centred - q @ p.T, 0.0)
    counts_row = np.maximum(mask.sum(axis=1, keepdims=True), 1)
    counts_col = np.maximum(mask.sum(axis=0)[:, None], 1)
    q += eta * (err @ p / counts_row - lam * q)
    p += eta * (err.T @ q / counts_col - lam * p)


def reference_refine(self, centred, mask, q, p):
    params = self.params
    rng = np.random.default_rng(params.seed)
    rows_idx, cols_idx = np.nonzero(mask)
    n_observed = rows_idx.size

    def rmse():
        residual = np.where(mask, centred - q @ p.T, 0.0)
        return float(np.sqrt(np.sum(residual**2) / n_observed))

    last_rmse = rmse()
    iterations = 0
    converged = False
    for iterations in range(1, params.max_iter + 1):
        if params.parallel:
            reference_epoch_parallel(self, centred, mask, q, p)
        else:
            self._epoch_serial(centred, rows_idx, cols_idx, q, p, rng)
        current = rmse()
        if last_rmse - current < params.tol:
            converged = True
            last_rmse = min(last_rmse, current)
            break
        last_rmse = current
    return SGDDiagnostics(
        iterations=iterations, observed_rmse=last_rmse, converged=converged
    )


class ReferenceReconstructor(PQReconstructor):
    """The reconstructor with the pre-hoisting loops swapped back in."""

    _init_factors = reference_init_factors
    _refine = reference_refine


# ----------------------------------------------------------------------
# Matrices: fully observed, empty and sparse rows
# ----------------------------------------------------------------------

def build_matrix(seed, n_known, n_online, density, n_cols):
    """A low-rank positive matrix: ``n_known`` fully observed rows,
    then online rows with the first one left empty and the rest
    observed at random with probability ``density``."""
    rng = np.random.default_rng(seed)
    n_rows = n_known + n_online
    truth = np.exp(
        rng.normal(0.0, 0.3, size=(n_rows, 2))
        @ rng.normal(0.0, 0.5, size=(2, n_cols))
        + rng.normal(0.0, 0.1, size=(n_rows, n_cols))
    )
    matrix = ObservedMatrix(n_rows, n_cols, known=truth[:n_known])
    for row in range(n_known + 1, n_rows):
        cols = np.nonzero(rng.random(n_cols) < density)[0]
        if cols.size == 0:
            cols = rng.integers(0, n_cols, size=1)
        for col in cols:
            matrix.observe(row, int(col), float(truth[row, col]))
    if n_online >= 3:
        # One online row observed everywhere: it shares the known
        # block's design without being part of it.
        for col in range(n_cols):
            matrix.observe(n_rows - 1, col, float(truth[-1, col]))
    return matrix


def stages(reconstructor, matrix):
    """Factors after init and after refine, diagnostics, reconstruction."""
    mask = matrix.mask
    work = np.zeros_like(matrix.values)
    np.log(matrix.values, where=mask, out=work)
    anchors = reconstructor._anchor_rows(mask)
    _, centred = reconstructor._baseline(work, mask, anchors)
    q, p = reconstructor._init_factors(centred, mask, anchors)
    q0, p0 = q.copy(), p.copy()
    diagnostics = reconstructor._refine(centred, mask, q, p)
    return q0, p0, q, p, diagnostics, reconstructor.reconstruct(matrix)


def assert_same_stages(matrix, params):
    fast = stages(PQReconstructor(params), matrix)
    slow = stages(ReferenceReconstructor(params), matrix)
    for got, want in zip(fast[:4], slow[:4], strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert fast[4] == slow[4]
    assert np.array_equal(fast[5], slow[5])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_known=st.sampled_from([0, 1, 2, 6, 16]),
    n_online=st.integers(2, 10),
    density=st.floats(0.05, 0.9),
    n_cols=st.sampled_from([5, 24, 108]),
    parallel=st.booleans(),
    rank=st.integers(1, 4),
)
def test_hoisted_sgd_matches_reference_loops(
    seed, n_known, n_online, density, n_cols, parallel, rank
):
    matrix = build_matrix(seed, n_known, n_online, density, n_cols)
    assert_same_stages(
        matrix, SGDParams(rank=rank, parallel=parallel, seed=seed % 7)
    )


def test_linear_space_matches_reference():
    matrix = build_matrix(3, 8, 6, 0.3, 24)
    params = replace(SGDParams(), log_space=False, max_iter=40)
    fast = PQReconstructor(params)
    slow = ReferenceReconstructor(params)
    assert np.array_equal(fast.reconstruct(matrix), slow.reconstruct(matrix))
    assert fast.last_diagnostics == slow.last_diagnostics


@pytest.mark.parametrize("parallel", [True, False])
def test_profiled_bips_matrix_matches_reference(parallel):
    """The controller's shape: 16 known rows over all 108 configs plus
    16 online rows seen at the two profiling configurations."""
    matrix, _, _ = _profiled_matrix(n_train=16)
    assert_same_stages(matrix, SGDParams(parallel=parallel))
