"""Differential oracle for the vectorized M/G/k latency rows.

``latency_row`` / ``latency_training_rows`` build each 108-config p99
row in one array pass.  The scalar loop below is the code they replaced
— one :class:`~repro.workloads.queueing.MGkQueue` per joint config —
kept here as the test-only reference.  Every comparison is
``np.array_equal``: the array pass must be bit-identical, not close.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.core.controller import LOAD_GRID
from repro.core.matrices import latency_row, latency_training_rows
from repro.core.runtime import CuttleSysPolicy
from repro.sim.coreconfig import N_JOINT_CONFIGS, JointConfig
from repro.sim.perf import PerformanceModel
from repro.workloads.latency_critical import (
    LC_SERVICE_NAMES,
    make_services,
    service_variants,
)
from repro.workloads.queueing import (
    ServiceDistribution,
    erlang_c,
    erlang_c_array,
)

perf = PerformanceModel()

#: Every base service followed by three of its historical variants.
SERVICES = tuple(
    service
    for name in LC_SERVICE_NAMES
    for service in (make_services(perf)[name],)
    + service_variants(name, 3, seed=0, perf=perf)
)

#: The saturation threshold the analytical model switches branches at.
KNEE_RHO = 0.995


def scalar_latency_row(service, perf, load, n_cores):
    """Reference: one scalar M/G/k p99 per joint configuration."""
    row = np.empty(N_JOINT_CONFIGS)
    for i in range(N_JOINT_CONFIGS):
        joint = JointConfig.from_index(i)
        row[i] = service.tail_latency(
            perf, joint.core, joint.cache_ways, load, n_cores
        )
    return row


def exact_knee_load(service, config_index, n_cores):
    """A load putting ``config_index`` at exactly rho == 0.995, or None.

    Solves for the load, then walks a few ulps either way until the
    model's own arithmetic lands on the threshold (not every config
    admits one).
    """
    joint = JointConfig.from_index(config_index)
    mean = service.service_time(perf, joint.core, joint.cache_ways)
    lo = hi = KNEE_RHO * n_cores / (mean * service.max_qps)
    for _ in range(64):
        for load in (lo, hi):
            if service.qps_at_load(load) * mean / n_cores == KNEE_RHO:
                return load
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return None


@st.composite
def shaped_services(draw):
    """A base service or variant, optionally with another service shape."""
    service = draw(st.sampled_from(SERVICES))
    shape = draw(st.sampled_from(
        ("as_is", "scv0", "lognormal", "bimodal", "deterministic")
    ))
    if shape == "as_is":
        return service
    if shape == "scv0":
        return replace(service, service_scv=0.0)
    scv = draw(st.sampled_from((0.0, 0.3, 1.0, 2.5)) | st.floats(0.0, 4.0))
    distribution = ServiceDistribution(
        kind=shape, scv=scv,
        long_fraction=draw(st.floats(0.01, 0.2)),
    )
    return replace(service, service_distribution=distribution)


@st.composite
def knee_cases(draw):
    """(service, load, cores) with some config at exactly rho == 0.995."""
    service = draw(shaped_services())
    n_cores = draw(st.integers(1, 32))
    start = draw(st.integers(0, N_JOINT_CONFIGS - 1))
    for offset in range(N_JOINT_CONFIGS):
        load = exact_knee_load(
            service, (start + offset) % N_JOINT_CONFIGS, n_cores
        )
        if load is not None and 0.0 <= load <= 1.5:
            return service, load, n_cores
    reject()


class TestLatencyRowOracle:
    @given(
        shaped_services(),
        st.just(0.0) | st.floats(0.0, 1.5),
        st.integers(1, 32),
    )
    @settings(max_examples=150, deadline=None)
    def test_row_bit_identical_to_scalar_loop(self, service, load, n_cores):
        fast = latency_row(service, perf, load, n_cores)
        assert np.array_equal(
            fast, scalar_latency_row(service, perf, load, n_cores)
        )

    @given(knee_cases())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_at_the_saturation_threshold(self, case):
        service, load, n_cores = case
        fast = latency_row(service, perf, load, n_cores)
        assert np.array_equal(
            fast, scalar_latency_row(service, perf, load, n_cores)
        )

    def test_knee_strategy_reaches_the_threshold(self):
        """The knee cases really exercise rho == 0.995 (not vacuous)."""
        service = SERVICES[0]
        hits = [
            exact_knee_load(service, i, 16) for i in range(N_JOINT_CONFIGS)
        ]
        assert sum(load is not None for load in hits) > 10

    @given(shaped_services(), st.integers(1, 32))
    @settings(max_examples=20, deadline=None)
    def test_zero_load_is_the_service_quantile_row(self, service, n_cores):
        fast = latency_row(service, perf, 0.0, n_cores)
        assert np.array_equal(
            fast, scalar_latency_row(service, perf, 0.0, n_cores)
        )

    def test_training_set_exhaustive(self, small_machine):
        """The controller's real training set x LOAD_GRID x 1-16 cores."""
        policy = CuttleSysPolicy.for_machine(small_machine)
        services = policy.controller.latency_training_services
        assert len(services) == 20
        for n_cores in range(1, 17):
            rows, keys = latency_training_rows(
                services, LOAD_GRID, perf, n_cores
            )
            reference = np.vstack([
                scalar_latency_row(service, perf, load, n_cores)
                for service in services
                for load in LOAD_GRID
            ])
            assert keys == [
                (service.name, load)
                for service in services for load in LOAD_GRID
            ]
            assert np.array_equal(rows, reference), n_cores


class TestErlangCArray:
    @given(
        st.integers(1, 64),
        st.lists(
            st.just(0.0) | st.floats(0.0, 80.0), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_scalar(self, servers, loads):
        fast = erlang_c_array(servers, np.array(loads))
        assert np.array_equal(
            fast, [erlang_c(servers, load) for load in loads]
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            erlang_c_array(0, np.array([1.0]))
        with pytest.raises(ValueError):
            erlang_c_array(4, np.array([-1.0]))
