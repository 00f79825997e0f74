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
        assert {row for row, *_ in bips["entries"]} <= set(
            range(controller.n_train, controller.n_train + controller.n_batch)
        )
        for entry in state["latency_matrices"]:
            n_rows = entry["matrix"]["n_rows"]
            assert all(row == n_rows - 1 for row, *_ in entry["matrix"]["entries"])

    def test_online_rows_travel_sparsely(self):
        """One entry per observed online cell, each with its age."""
        machine, controller = build_controller()
        for load in (0.5, 0.6, 0.7):
            step(machine, controller, load, 120.0)
        matrix = controller._bips_matrix
        entries = controller.snapshot()["bips_matrix"]["entries"]
        online = matrix.mask[matrix.n_known:]
        assert len(entries) == int(online.sum()) < online.size // 10
        for row, col, value, age in entries:
            assert matrix.mask[row, col]
            assert value == matrix.values[row, col]
            assert age == matrix.age[row, col]

    def test_unobserved_cell_with_a_value_refuses_to_snapshot(self):
        """The sparse form would drop the value, so it raises instead."""
        _, controller = build_controller()
        matrix = controller._bips_matrix
        matrix.values[matrix.n_rows - 1, 5] = 1.0
        with pytest.raises(ValueError, match="unobserved"):
            controller.snapshot()

    @pytest.mark.parametrize("bad_entries", [
        lambda first: [[0, 0, 1.0, 0]],
        lambda first: [[10**6, 0, 1.0, 0]],
        lambda first: [[-1, 0, 1.0, 0]],
        lambda first: [[first, 999, 1.0, 0]],
        lambda first: [[first, 3, 1.0, 0]] * 2,
    ], ids=["known-row", "past-last-row", "negative-row", "past-last-col",
            "same-cell-twice"])
    def test_bad_entry_raises(self, bad_entries):
        _, controller = build_controller()
        state = controller.snapshot()
        bips = state["bips_matrix"]
        bips["entries"] += bad_entries(bips["n_known"])
        _, restored = build_controller()
        with pytest.raises(ValueError, match="bad matrix entry"):
            restored.restore(state)

    def test_restore_clears_stale_online_cells(self):
        """Restoring into a controller that has observed on its own
        leaves only the snapshot's cells observed."""
        machine, controller = build_controller()
        state = json.loads(json.dumps(controller.snapshot()))
        other_machine, other = build_controller()
        step(other_machine, other, 0.6, 120.0)
        other.restore(state)
        assert_same_matrices(controller, other)

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
