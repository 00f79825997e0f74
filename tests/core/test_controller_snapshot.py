"""Controller snapshots carry learned rows only (docs/robustness.md).

Known rows are rebuilt by the constructors on restore and checked
against a digest; the latency regimes come back in creation order,
because latency transfer breaks core-count distance ties by it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.loadgen import LoadTrace

from test_controller import build_controller, step


def round_trip(controller):
    """A fresh controller restored from ``controller``'s JSON snapshot."""
    state = json.loads(json.dumps(controller.snapshot(), sort_keys=True))
    _, restored = build_controller()
    restored.restore(state)
    return restored


def matrices(controller):
    return [controller._bips_matrix, controller._power_matrix] + list(
        controller._latency_matrices.values()
    )


def assert_same_matrices(a, b):
    assert list(a._latency_matrices) == list(b._latency_matrices)
    for left, right in zip(matrices(a), matrices(b), strict=True):
        assert left.n_known == right.n_known
        assert np.array_equal(left.values, right.values)
        assert np.array_equal(left.mask, right.mask)
        assert np.array_equal(left.age, right.age)


class TestLearnedRowsOnly:
    def test_snapshot_carries_no_known_values(self):
        machine, controller = build_controller()
        step(machine, controller, 0.5, 120.0)
        state = controller.snapshot()
        bips = state["bips_matrix"]
        assert bips["n_known"] == controller.n_train
        assert len(bips["values"]) == controller.n_batch
        for entry in state["latency_matrices"]:
            assert len(entry["matrix"]["values"]) == 1

    def test_tampered_digest_raises(self):
        machine, controller = build_controller()
        step(machine, controller, 0.5, 120.0)
        state = controller.snapshot()
        entry = state["latency_matrices"][0]["matrix"]
        entry["known_sha256"] = "0" * 64
        _, restored = build_controller()
        with pytest.raises(ValueError, match="digest"):
            restored.restore(state)

    def test_shape_mismatch_raises(self):
        machine, controller = build_controller()
        state = controller.snapshot()
        state["power_matrix"]["n_known"] -= 1
        _, restored = build_controller()
        with pytest.raises(ValueError, match="shape"):
            restored.restore(state)


class TestRegimeOrder:
    def test_transfer_tie_break_survives_restore(self):
        """Regimes at 11 and 9 cores are equally far from 10; the live
        controller transfers from the one created first (11).  A
        restore that rebuilt regimes in sorted key order picked 9."""
        _, controller = build_controller()
        for n_cores, value in ((11, 2e-3), (9, 3e-3)):
            matrix = controller._latency_matrix(0.7, n_cores)
            matrix.observe(matrix.n_rows - 1, 50, value)
        restored = round_trip(controller)
        assert list(restored._latency_matrices) == [(0, 0.7, 11), (0, 0.7, 9)]
        assert np.array_equal(
            restored._predict_latency(0.7, 10),
            controller._predict_latency(0.7, 10),
        )


@settings(max_examples=6, deadline=None)
@given(
    n_quanta=st.integers(1, 6),
    period=st.floats(0.2, 2.0),
)
def test_restore_of_snapshot_equals_live_state(n_quanta, period):
    """Under shifting diurnal load, restore(snapshot()) after N quanta
    reproduces every matrix (ages included), the regime order, and
    the latency predictions and decision that follow."""
    trace = LoadTrace.diurnal(0.2, 0.9, period=period)
    machine, controller = build_controller()
    for i in range(n_quanta):
        step(machine, controller, trace.load_at(0.1 * i), 120.0)
    restored = round_trip(controller)
    assert_same_matrices(controller, restored)
    assert restored._latency_evidence == controller._latency_evidence
    for service_idx, bucket, n_cores in list(controller._latency_matrices):
        assert np.array_equal(
            restored._predict_latency(bucket, n_cores, service_idx),
            controller._predict_latency(bucket, n_cores, service_idx),
        )
    assert_same_matrices(controller, restored)
    load = trace.load_at(0.1 * n_quanta)
    assert restored.decide(load, 120.0) == controller.decide(load, 120.0)
