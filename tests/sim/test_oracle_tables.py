"""Differential oracle for ``Machine.oracle_batch_tables``.

The tables are built from the model's array rows (``bips_row`` scaled
by each job's phase, ``power_row``).  The scalar loop below is the
code they replaced — one ``true_batch_bips`` / ``true_batch_power``
call per (job, joint config) — kept here as the test-only reference.
Every comparison is ``np.array_equal``: bit-identical, not close.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import build_machine_for_mix
from repro.sim.coreconfig import N_JOINT_CONFIGS, JointConfig
from repro.telemetry import Telemetry
from repro.workloads.batch import batch_profile
from repro.workloads.mixes import paper_mixes


def scalar_batch_tables(machine):
    """Reference: one scalar model call per (job, joint config)."""
    n = len(machine.batch_profiles)
    bips = np.empty((n, N_JOINT_CONFIGS))
    power = np.empty((n, N_JOINT_CONFIGS))
    for idx in range(N_JOINT_CONFIGS):
        joint = JointConfig.from_index(idx)
        for j in range(n):
            bips[j, idx] = machine.true_batch_bips(j, joint)
            power[j, idx] = machine.true_batch_power(j, joint.core)
    return bips, power


@settings(max_examples=25, deadline=None)
@given(
    mix=st.integers(0, len(paper_mixes()) - 1),
    seed=st.integers(0, 2**16),
    phase_scale=st.floats(0.0, 2.0),
)
def test_tables_match_scalar_oracle(mix, seed, phase_scale):
    machine = build_machine_for_mix(paper_mixes()[mix], seed=seed)
    rng = np.random.default_rng(seed)
    machine._log_phase[:] = rng.normal(
        0.0, phase_scale, len(machine.batch_profiles)
    )
    bips, power = machine.oracle_batch_tables()
    ref_bips, ref_power = scalar_batch_tables(machine)
    assert np.array_equal(bips, ref_bips)
    assert np.array_equal(power, ref_power)


def test_tables_keep_their_profiler_span():
    machine = build_machine_for_mix(paper_mixes()[0], seed=7)
    telemetry = Telemetry()
    machine.attach_telemetry(telemetry)
    machine.oracle_batch_tables()
    (span,) = [s for s in machine.trace.spans if s.name == "mgk.latency"]
    assert span.args == {
        "kind": "batch_tables",
        "evaluations": len(machine.batch_profiles) * N_JOINT_CONFIGS,
    }


def test_cached_rows_follow_replace_batch_job():
    """Each slot's rows are cached per profile; a churned slot is
    rebuilt from its new profile, the others keep theirs."""
    machine = build_machine_for_mix(paper_mixes()[0], seed=3)
    machine.oracle_batch_tables()
    machine.replace_batch_job(2, batch_profile("mcf"))
    machine._log_phase[:] = np.linspace(-0.5, 0.5, len(machine._log_phase))
    bips, power = machine.oracle_batch_tables()
    ref_bips, ref_power = scalar_batch_tables(machine)
    assert np.array_equal(bips, ref_bips)
    assert np.array_equal(power, ref_power)


def test_cached_rows_follow_restore():
    """A restore swaps every profile; no row cached before it survives."""
    donor = build_machine_for_mix(paper_mixes()[1], seed=5)
    donor._log_phase[:] = 0.25
    machine = build_machine_for_mix(paper_mixes()[0], seed=5)
    machine.oracle_batch_tables()
    machine.restore(donor.snapshot())
    bips, power = machine.oracle_batch_tables()
    ref_bips, ref_power = scalar_batch_tables(machine)
    assert np.array_equal(bips, ref_bips)
    assert np.array_equal(power, ref_power)
    assert np.array_equal(bips, donor.oracle_batch_tables()[0])
