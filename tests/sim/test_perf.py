"""Tests for the bottleneck CPI performance model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.cache import MissRateCurve
from repro.sim.coreconfig import (
    CORE_CONFIGS,
    JOINT_CONFIGS,
    N_JOINT_CONFIGS,
    CoreConfig,
)
from repro.sim.perf import AppProfile, PerformanceModel, width_penalty
from repro.workloads.batch import all_batch_profiles
from repro.workloads.latency_critical import make_services


def make_profile(**overrides):
    defaults = dict(
        name="test",
        base_cpi=0.6,
        fe_sens=0.2,
        be_sens=0.3,
        ls_sens=0.15,
        miss_curve=MissRateCurve(peak=10.0, floor=2.0, half_ways=3.0),
    )
    defaults.update(overrides)
    return AppProfile(**defaults)


class TestWidthPenalty:
    def test_zero_at_six_wide(self):
        assert width_penalty(6) == pytest.approx(0.0)

    def test_monotone_in_narrowing(self):
        assert width_penalty(2) > width_penalty(4) > width_penalty(6)

    def test_convex_shape(self):
        # Dropping 6->4 must cost much less than 4->2.
        assert width_penalty(2) - width_penalty(4) > width_penalty(4)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            width_penalty(0)


class TestAppProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_profile(base_cpi=0.0)
        with pytest.raises(ValueError):
            make_profile(fe_sens=-0.1)
        with pytest.raises(ValueError):
            make_profile(activity=0.0)
        with pytest.raises(ValueError):
            make_profile(activity=2.5)

    def test_frozen(self):
        profile = make_profile()
        with pytest.raises(AttributeError):
            profile.base_cpi = 1.0


class TestPerformanceModel:
    def test_cpi_floor_is_base_plus_memory(self, perf):
        profile = make_profile()
        cpi = perf.cpi(profile, CoreConfig.widest(), cache_ways=4.0)
        mem = profile.miss_curve.mpki(4.0) / 1000 * 200 * profile.mem_blocking
        assert cpi == pytest.approx(profile.base_cpi + mem)

    @given(st.sampled_from(CORE_CONFIGS), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_cpi_positive_everywhere(self, config, ways):
        perf = PerformanceModel()
        assert perf.cpi(make_profile(), config, ways) > 0

    def test_cpi_monotone_in_each_section(self, perf):
        profile = make_profile()
        for section in ("fe", "be", "ls"):
            for narrow, wide in ((2, 4), (4, 6)):
                kwargs_narrow = dict(fe=6, be=6, ls=6)
                kwargs_wide = dict(fe=6, be=6, ls=6)
                kwargs_narrow[section] = narrow
                kwargs_wide[section] = wide
                assert perf.cpi(
                    profile, CoreConfig(**kwargs_narrow), 4.0
                ) > perf.cpi(profile, CoreConfig(**kwargs_wide), 4.0)

    def test_cpi_monotone_in_cache_ways(self, perf):
        profile = make_profile()
        config = CoreConfig(4, 4, 4)
        cpis = [perf.cpi(profile, config, w) for w in (0.5, 1.0, 2.0, 4.0)]
        assert cpis == sorted(cpis, reverse=True)

    def test_shared_way_hurts(self, perf):
        profile = make_profile()
        config = CoreConfig(4, 4, 4)
        assert perf.cpi(profile, config, 0.5, shared_way=True) > perf.cpi(
            profile, config, 0.5
        )

    def test_narrow_ls_exposes_more_memory_stalls(self, perf):
        # An app with zero section sensitivities but memory traffic
        # still slows down when LS narrows (lost MLP).
        profile = make_profile(fe_sens=0.0, be_sens=0.0, ls_sens=0.0)
        assert perf.cpi(profile, CoreConfig(6, 6, 2), 4.0) > perf.cpi(
            profile, CoreConfig(6, 6, 6), 4.0
        )

    def test_bips_is_frequency_over_cpi(self, perf):
        profile = make_profile()
        config = CoreConfig(4, 2, 6)
        expected = perf.effective_frequency_ghz / perf.cpi(profile, config, 2.0)
        assert perf.bips(profile, config, 2.0) == pytest.approx(expected)

    def test_reconfigurable_frequency_penalty(self):
        reconf = PerformanceModel(reconfigurable=True)
        fixed = PerformanceModel(reconfigurable=False)
        assert reconf.effective_frequency_ghz == pytest.approx(
            4.0 * (1 - 0.0167)
        )
        assert fixed.effective_frequency_ghz == pytest.approx(4.0)
        profile = make_profile()
        config = CoreConfig.widest()
        ratio = fixed.bips(profile, config, 4.0) / reconf.bips(
            profile, config, 4.0
        )
        assert ratio == pytest.approx(1.0 / (1 - 0.0167))

    def test_bips_row_shape_and_consistency(self, perf):
        profile = make_profile()
        row = perf.bips_row(profile)
        assert row.shape == (N_JOINT_CONFIGS,)
        assert np.all(row > 0)
        # Widest config with 4 ways must be the global maximum.
        assert np.argmax(row) == N_JOINT_CONFIGS - 1

    def test_cpi_row_is_reciprocal_relation(self, perf):
        profile = make_profile()
        bips = perf.bips_row(profile)
        cpi = perf.cpi_row(profile)
        assert np.allclose(bips * cpi, perf.effective_frequency_ghz)

    @pytest.mark.parametrize("reconfigurable", [True, False])
    def test_rows_equal_scalar_path_bit_for_bit(self, reconfigurable):
        # The rows are one array pass; every element must still be the
        # scalar cpi()/bips() value exactly, for every batch profile and
        # every latency-critical service profile.
        model = PerformanceModel(reconfigurable=reconfigurable)
        profiles = all_batch_profiles() + [
            service.profile for service in make_services(model).values()
        ]
        for profile in profiles:
            cpi = [model.cpi(profile, j.core, j.cache_ways) for j in JOINT_CONFIGS]
            bips = [model.bips(profile, j.core, j.cache_ways) for j in JOINT_CONFIGS]
            assert np.array_equal(model.cpi_row(profile), cpi), profile.name
            assert np.array_equal(model.bips_row(profile), bips), profile.name

    def test_section_sensitivity_differentiates_apps(self, perf):
        # A BE-bound app must lose more from narrowing BE than an
        # LS-bound app does, and vice versa.
        be_bound = make_profile(be_sens=0.6, ls_sens=0.05)
        ls_bound = make_profile(be_sens=0.05, ls_sens=0.6)
        narrow_be = CoreConfig(6, 2, 6)
        narrow_ls = CoreConfig(6, 6, 2)
        wide = CoreConfig.widest()

        def slowdown(profile, config):
            return perf.cpi(profile, config, 4.0) / perf.cpi(profile, wide, 4.0)

        assert slowdown(be_bound, narrow_be) > slowdown(ls_bound, narrow_be)
        assert slowdown(ls_bound, narrow_ls) > slowdown(be_bound, narrow_ls)
