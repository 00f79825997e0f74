"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.baselines import CoreGatingPolicy, NoGatingPolicy
from repro.experiments.harness import (
    POWER_TOLERANCE,
    PolicyRun,
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@pytest.fixture()
def mix():
    return paper_mixes()[0]


class TestBuildMachine:
    def test_reconfigurable_default(self, mix):
        machine = build_machine_for_mix(mix, seed=1)
        assert machine.perf.reconfigurable
        assert machine.power.reconfigurable

    def test_fixed_variant(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        assert not machine.perf.reconfigurable
        assert not machine.power.reconfigurable

    def test_same_lc_service_both_variants(self, mix):
        a = build_machine_for_mix(mix, seed=1)
        b = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        assert a.lc_service is b.lc_service  # identical QoS targets

    def test_sixteen_batch_jobs(self, mix):
        machine = build_machine_for_mix(mix, seed=1)
        assert len(machine.batch_profiles) == 16

    def test_reference_power(self, mix):
        reference = reference_power_for_mix(mix, seed=1)
        machine = build_machine_for_mix(mix, seed=1)
        assert reference == pytest.approx(machine.reference_max_power())


class TestRunPolicy:
    def test_bookkeeping(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        run = run_policy(
            machine, NoGatingPolicy(), LoadTrace.constant(0.5),
            power_cap_fraction=0.8, n_slices=4,
        )
        assert run.n_slices == 4
        assert len(run.loads) == 4
        assert len(run.budgets) == 4
        assert run.total_batch_instructions() > 0

    def test_power_cap_trace_overrides(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        run = run_policy(
            machine, NoGatingPolicy(), LoadTrace.constant(0.5),
            power_cap_fraction=0.9, n_slices=3,
            power_cap_trace=[0.9, 0.5, 0.9],
        )
        assert run.budgets[1] < run.budgets[0]

    def test_loads_follow_trace(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        trace = LoadTrace.steps([(0.0, 0.2), (0.2, 0.9)])
        run = run_policy(
            machine, NoGatingPolicy(), trace,
            power_cap_fraction=0.9, n_slices=4,
        )
        assert run.loads[0] == 0.2
        assert run.loads[-1] == 0.9

    def test_overhead_discounts_instructions(self, mix):
        machine_a = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        machine_b = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        free = NoGatingPolicy()
        taxed = NoGatingPolicy()
        taxed.overhead_fraction = 0.5
        run_free = run_policy(machine_a, free, LoadTrace.constant(0.5),
                              n_slices=2)
        run_taxed = run_policy(machine_b, taxed, LoadTrace.constant(0.5),
                               n_slices=2)
        assert run_taxed.total_batch_instructions() == pytest.approx(
            0.5 * run_free.total_batch_instructions()
        )

    def test_qos_and_power_violation_counters(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        run = run_policy(
            machine, NoGatingPolicy(), LoadTrace.constant(0.5),
            power_cap_fraction=0.5, n_slices=3,
        )
        # No-gating ignores the budget: every slice violates power.
        assert run.power_violations() == 3
        assert run.qos_violations() == 0

    def test_gmean_series_shape(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        run = run_policy(machine, CoreGatingPolicy(), LoadTrace.constant(0.5),
                         power_cap_fraction=0.7, n_slices=3)
        series = run.gmean_throughput_series()
        assert series.shape == (3,)
        assert np.all(series > 0)

    def test_summary_text(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        run = run_policy(machine, NoGatingPolicy(), LoadTrace.constant(0.5),
                         n_slices=2)
        text = run.summary()
        assert "no-gating" in text
        assert "QoS violations" in text

    def test_validation(self, mix):
        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        with pytest.raises(ValueError):
            run_policy(machine, NoGatingPolicy(), LoadTrace.constant(0.5),
                       n_slices=0)
        with pytest.raises(ValueError):
            run_policy(machine, NoGatingPolicy(), LoadTrace.constant(0.5),
                       power_cap_fraction=1.5)


class TestPowerTolerance:
    def test_constant_value(self):
        # The 2 % band matches the machine's slice measurement noise;
        # changing it shifts both PolicyRun and telemetry counts.
        assert POWER_TOLERANCE == 0.02

    def test_default_matches_constant(self):
        run = PolicyRun(policy_name="x", power_budget_w=100.0)
        run.budgets = [100.0]
        m = type(
            "M", (), {"total_power": 101.9, "lc_p99": 0.0, "extra_lc_p99": ()}
        )()
        run.measurements = [m]
        assert run.power_violations() == 0  # inside the band
        m.total_power = 102.1
        assert run.power_violations() == 1  # outside the band

    @pytest.mark.parametrize("setup", ["no-gating", "two-service-faults"])
    def test_telemetry_counter_agrees_with_policyrun(self, mix, setup):
        from repro.core.runtime import CuttleSysPolicy
        from repro.experiments.multi_service import build_two_service_machine
        from repro.faults import FaultInjector, parse_fault_spec
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        if setup == "no-gating":
            # Ignores the budget: power violations on every slice.
            machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
            run = run_policy(
                machine, NoGatingPolicy(), LoadTrace.constant(0.5),
                power_cap_fraction=0.5, n_slices=3, telemetry=telemetry,
            )
        else:
            # Two services at high load under failed reconfigurations:
            # QoS violations, counted across both services.
            machine = build_two_service_machine(seed=7)
            faults = FaultInjector(
                parse_fault_spec(
                    "failed_reconfig:rate=0.6,duration=2,start=1"
                ),
                seed=7,
            )
            run = run_policy(
                machine, CuttleSysPolicy.for_machine(machine, seed=7),
                LoadTrace.constant(0.6), power_cap_fraction=0.6,
                n_slices=6, extra_traces=(LoadTrace.constant(0.6),),
                telemetry=telemetry, faults=faults,
            )
            assert faults.injected.get("failed_reconfig", 0) > 0
        assert run.qos_violations() + run.power_violations() > 0
        counters = telemetry.metrics.as_dict()["counters"]
        assert counters.get("harness.qos_violations", 0) == run.qos_violations()
        assert counters.get("harness.power_violations", 0) == run.power_violations()


class TestToCsv:
    def test_zero_slice_run_writes_valid_header(self, tmp_path):
        import csv

        run = PolicyRun(policy_name="empty", power_budget_w=100.0)
        path = tmp_path / "empty.csv"
        run.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1
        assert rows[0][:3] == ["slice", "load", "budget_w"]
        assert all(rows[0])  # no blank column names

    def test_header_matches_rows(self, mix, tmp_path):
        import csv

        machine = build_machine_for_mix(mix, seed=1, reconfigurable=False)
        run = run_policy(machine, NoGatingPolicy(), LoadTrace.constant(0.5),
                         n_slices=2)
        path = tmp_path / "run.csv"
        run.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3
        assert all(len(r) == len(rows[0]) for r in rows)
