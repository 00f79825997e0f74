"""Tests for the soft-penalty system objective (Eq. 1-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import SystemObjective
from repro.sim.coreconfig import N_JOINT_CONFIGS


def make_objective(n_jobs=4, max_power=50.0, **kwargs):
    rng = np.random.default_rng(1)
    bips = rng.uniform(0.5, 5.0, size=(n_jobs, N_JOINT_CONFIGS))
    power = rng.uniform(1.0, 4.0, size=(n_jobs, N_JOINT_CONFIGS))
    defaults = dict(max_power=max_power, max_ways=32.0)
    defaults.update(kwargs)
    return SystemObjective(bips=bips, power=power, **defaults)


class TestGmean:
    def test_gmean_matches_numpy(self):
        obj = make_objective()
        x = np.array([0, 10, 50, 107])
        vals = obj.bips[np.arange(4), x]
        assert obj.gmean_bips(x) == pytest.approx(
            float(np.exp(np.mean(np.log(vals))))
        )

    def test_time_share_scales_gmean(self):
        obj = make_objective(time_share=0.5)
        ref = make_objective(time_share=1.0)
        x = np.array([1, 2, 3, 4])
        assert obj.gmean_bips(x) == pytest.approx(0.5 * ref.gmean_bips(x))


class TestConstraints:
    def test_power_sum_includes_reservation(self):
        obj = make_objective(reserved_power=10.0)
        x = np.zeros(4, dtype=int)
        expected = float(np.sum(obj.power[np.arange(4), x])) + 10.0
        assert obj.total_power(x) == pytest.approx(expected)

    def test_ways_pairing_halves(self):
        obj = make_objective()
        # Joint index with cache_index 0 -> 0.5 ways.
        half = 0  # {2,2,2}/0.5w
        one = 1   # {2,2,2}/1w
        x = np.array([half, half, half, one])
        # ceil(3/2)=2 paired ways + 1 whole way.
        assert obj.total_ways(x) == pytest.approx(3.0)

    def test_reserved_ways_added(self):
        obj = make_objective(reserved_ways=4.0)
        x = np.array([1, 1, 1, 1])  # four 1-way allocations
        assert obj.total_ways(x) == pytest.approx(8.0)

    def test_penalties_reduce_objective(self):
        obj = make_objective(max_power=1.0)  # everything over budget
        x = np.array([107, 107, 107, 107])
        assert obj(x) < obj.gmean_bips(x)

    def test_no_penalty_when_feasible(self):
        obj = make_objective(max_power=1e9)
        x = np.array([5, 5, 5, 5])
        assert obj(x) == pytest.approx(obj.gmean_bips(x))

    def test_is_feasible(self):
        obj = make_objective(max_power=1e9)
        assert obj.is_feasible(np.array([1, 1, 1, 1]))
        tight = make_objective(max_power=0.1)
        assert not tight.is_feasible(np.array([1, 1, 1, 1]))


class TestBatchEvaluation:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_batch_matches_scalar(self, seed):
        obj = make_objective(max_power=40.0)
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, N_JOINT_CONFIGS, size=(8, 4))
        batch = obj.evaluate_batch(xs)
        scalar = np.array([obj(x) for x in xs])
        assert np.array_equal(batch, scalar)

    def test_batch_shape_validation(self):
        obj = make_objective()
        with pytest.raises(ValueError):
            obj.evaluate_batch(np.zeros((3, 7), dtype=int))


class TestValidation:
    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SystemObjective(
                bips=rng.uniform(1, 2, (2, N_JOINT_CONFIGS)),
                power=rng.uniform(1, 2, (3, N_JOINT_CONFIGS)),
                max_power=10.0,
                max_ways=32.0,
            )

    def test_nonstandard_width_needs_ways(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SystemObjective(
                bips=rng.uniform(1, 2, (2, 27)),
                power=rng.uniform(1, 2, (2, 27)),
                max_power=10.0,
                max_ways=32.0,
            )
        obj = SystemObjective(
            bips=rng.uniform(1, 2, (2, 27)),
            power=rng.uniform(1, 2, (2, 27)),
            max_power=10.0,
            max_ways=32.0,
            ways_by_config=np.zeros(27),
        )
        assert obj.n_confs == 27
        assert obj.total_ways(np.array([0, 26])) == 0.0

    def test_positive_limits(self):
        with pytest.raises(ValueError):
            make_objective(max_power=0.0)

    def test_wrong_decision_shape(self):
        obj = make_objective()
        with pytest.raises(ValueError):
            obj(np.array([1, 2]))
