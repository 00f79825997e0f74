"""Tests for the reconstruction-matrix containers and builders."""

import numpy as np
import pytest

from repro.core.matrices import (
    ObservedMatrix,
    TruthTables,
    latency_row,
    latency_training_rows,
    power_rows,
    throughput_rows,
)
from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.workloads.batch import batch_profile
from repro.workloads.latency_critical import lc_service, make_services


class TestObservedMatrix:
    def test_fresh_matrix_is_empty(self):
        m = ObservedMatrix(4)
        assert not m.mask.any()
        assert m.observed_count(0) == 0

    def test_known_row_fully_observed(self):
        row = np.linspace(1, 2, N_JOINT_CONFIGS)
        m = ObservedMatrix(2, known=row[None, :])
        assert m.n_known == 1
        assert m.observed_count(0) == N_JOINT_CONFIGS
        assert np.allclose(m.values[0], row)
        assert m.observed_count(1) == 0

    def test_known_rows_are_read_only(self):
        m = ObservedMatrix(2, known=np.ones((1, N_JOINT_CONFIGS)))
        with pytest.raises(ValueError, match="read-only"):
            m.observe(0, 0, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            m.clear_row(0)
        assert m.observed_count(0) == N_JOINT_CONFIGS

    def test_observe_single_entries(self):
        m = ObservedMatrix(2)
        m.observe(1, 5, 3.5)
        m.observe(1, 7, 4.5)
        assert m.observed_count(1) == 2
        assert m.values[1, 5] == 3.5
        # Later observations overwrite.
        m.observe(1, 5, 9.9)
        assert m.values[1, 5] == 9.9
        assert m.observed_count(1) == 2

    def test_non_finite_rejected(self):
        m = ObservedMatrix(1)
        with pytest.raises(ValueError):
            m.observe(0, 0, float("nan"))
        with pytest.raises(ValueError):
            m.observe(0, 0, float("inf"))

    def test_wrong_row_shape_rejected(self):
        with pytest.raises(ValueError):
            ObservedMatrix(1, known=np.ones((1, 5)))
        with pytest.raises(ValueError):
            ObservedMatrix(1, known=np.ones((2, N_JOINT_CONFIGS)))

    def test_copy_is_deep(self):
        m = ObservedMatrix(1)
        m.observe(0, 0, 1.0)
        c = m.copy()
        c.observe(0, 1, 2.0)
        assert m.observed_count(0) == 1
        assert c.observed_count(0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedMatrix(0)


class TestBuilders:
    def test_throughput_rows_shape(self, perf):
        profiles = [batch_profile("mcf"), batch_profile("namd")]
        rows = throughput_rows(profiles, perf)
        assert rows.shape == (2, N_JOINT_CONFIGS)
        assert np.all(rows > 0)

    def test_power_rows_shape(self, power):
        profiles = [batch_profile("mcf")]
        rows = power_rows(profiles, power)
        assert rows.shape == (1, N_JOINT_CONFIGS)
        assert np.all(rows > 0)

    def test_latency_row(self, perf):
        row = latency_row(lc_service("xapian"), perf, load=0.8, n_cores=16)
        assert row.shape == (N_JOINT_CONFIGS,)
        assert np.all(row > 0)
        # Widest config with max ways must be among the fastest.
        assert row[-1] <= np.percentile(row, 10)

    def test_truth_tables(self, perf, power):
        profiles = [batch_profile("mcf"), batch_profile("lbm")]
        tables = TruthTables.build(profiles, perf, power)
        assert tables.batch_bips.shape == tables.batch_power.shape


class TestLatencyTrainingRows:
    def test_rows_and_keys(self, perf):
        services = list(make_services(perf).values())
        rows, keys = latency_training_rows(services, [0.4, 0.8], perf, 16)
        assert rows.shape == (10, N_JOINT_CONFIGS)
        assert len(keys) == 10
        assert ("xapian", 0.4) in keys

    def test_exclusion(self, perf):
        services = list(make_services(perf).values())
        rows, keys = latency_training_rows(
            services, [0.8], perf, 16, exclude=("xapian", 0.8)
        )
        assert ("xapian", 0.8) not in keys
        assert rows.shape[0] == 4

    def test_empty_training_set_rejected(self, perf):
        services = [lc_service("xapian")]
        with pytest.raises(ValueError):
            latency_training_rows(
                services, [0.8], perf, 16, exclude=("xapian", 0.8)
            )


class TestObservationAging:
    def test_tick_ages_observations(self):
        m = ObservedMatrix(2)
        m.observe(0, 5, 1.0)
        m.tick()
        m.tick()
        assert m.age[0, 5] == 2

    def test_expire_drops_stale_entries(self):
        m = ObservedMatrix(2)
        m.observe(0, 5, 1.0)
        m.observe(0, 9, 2.0)
        m.tick()
        m.tick()
        m.observe(0, 9, 2.5)  # refreshed: age back to 0
        dropped = m.expire(max_age=1)
        assert dropped == 1
        assert not m.mask[0, 5]
        assert m.mask[0, 9]

    def test_known_rows_never_expire(self):
        m = ObservedMatrix(2, known=np.linspace(1, 2, N_JOINT_CONFIGS)[None])
        for _ in range(10):
            m.tick()
        assert m.expire(max_age=1) == 0
        assert m.observed_count(0) == m.n_cols
        assert not m.age[0].any()  # only the online block ages

    def test_clear_row(self):
        m = ObservedMatrix(2)
        m.observe(1, 3, 4.0)
        m.clear_row(1)
        assert m.observed_count(1) == 0
        assert m.age[1, 3] == 0

    def test_expire_validation(self):
        m = ObservedMatrix(1)
        with pytest.raises(ValueError):
            m.expire(max_age=-1)

    def test_known_digest_tracks_the_known_block(self):
        known = np.linspace(1, 2, 2 * N_JOINT_CONFIGS).reshape(2, -1)
        m = ObservedMatrix(3, known=known)
        m.observe(2, 0, 5.0)
        assert m.known_digest() == ObservedMatrix(3, known=known).known_digest()
        assert m.known_digest() != ObservedMatrix(
            3, known=known[::-1]
        ).known_digest()

    def test_copy_preserves_ages(self):
        m = ObservedMatrix(1)
        m.observe(0, 0, 1.0)
        m.tick()
        c = m.copy()
        assert c.age[0, 0] == 1
        c.tick()
        assert m.age[0, 0] == 1  # deep copy
