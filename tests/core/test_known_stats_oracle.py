"""Differential oracle for the known block's cached outlier statistics.

``ObservedMatrix`` builds the per-column median and MAD of its
read-only known block once, and ``ResourceController._sample_ok``
reads them.  The per-sample ``np.median`` path they replaced is kept
below as the test-only reference: the statistics must be bit-identical
and every screening verdict the same.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import ControllerConfig, ResourceController
from repro.core.matrices import ObservedMatrix


def reference_sample_ok(matrix, col, value, threshold, mad_check=True):
    """The screening test as it was: two medians per sample."""
    if not np.isfinite(value) or value < 0:
        return False
    if not mad_check:
        return True
    known = matrix.values[: matrix.n_known, col]
    if known.size < 4:
        return True
    med = float(np.median(known))
    mad_sigma = float(np.median(np.abs(known - med))) * 1.4826
    scale = max(mad_sigma, abs(med) * 0.5, 1e-12)
    return abs(value - med) <= threshold * scale


def random_known(rng, n_known, n_cols):
    """Positive, heavy-tailed columns with ties (repeated rows)."""
    block = np.exp(rng.normal(0.0, 1.5, size=(n_known, n_cols)))
    if n_known >= 3:
        block[1] = block[0]
    return block


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_known=st.integers(0, 40),
    n_cols=st.integers(1, 12),
)
def test_cached_statistics_match_per_column_medians(seed, n_known, n_cols):
    rng = np.random.default_rng(seed)
    matrix = ObservedMatrix(
        n_known + 1, n_cols, known=random_known(rng, n_known, n_cols)
    )
    if n_known == 0:
        assert not matrix.known_median.any() and not matrix.known_mad.any()
        return
    for col in range(n_cols):
        known = matrix.values[:n_known, col]
        med = float(np.median(known))
        assert float(matrix.known_median[col]) == med
        assert float(matrix.known_mad[col]) == float(
            np.median(np.abs(known - med))
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_known=st.integers(0, 24),
    threshold=st.floats(0.5, 10.0),
    mad_check=st.booleans(),
    values=st.lists(
        st.one_of(
            st.floats(-1.0, 1e3),
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0]),
        ),
        min_size=1, max_size=20,
    ),
)
def test_screening_verdicts_match_reference(
    seed, n_known, threshold, mad_check, values
):
    rng = np.random.default_rng(seed)
    n_cols = 6
    matrix = ObservedMatrix(
        n_known + 1, n_cols, known=random_known(rng, n_known, n_cols)
    )
    controller = SimpleNamespace(
        config=ControllerConfig(outlier_mad_threshold=threshold)
    )
    for i, value in enumerate(values):
        col = i % n_cols
        assert ResourceController._sample_ok(
            controller, matrix, col, value, mad_check=mad_check
        ) == reference_sample_ok(matrix, col, value, threshold, mad_check)

