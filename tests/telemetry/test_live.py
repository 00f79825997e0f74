"""Tests for live streaming telemetry: windows, backpressure, totals.

The aggregator is operator-facing and lossy by design: rolling windows,
drop accounting, per-unit counter totals and the status view.  The
merged log has one producer, ``merge_jsonl`` (see test_merge_jsonl.py).
"""

import json
import math
import queue

import pytest

from repro.telemetry import merge_jsonl
from repro.telemetry.live import (
    CallbackSink,
    LiveAggregator,
    LiveEmitter,
    RollingWindow,
    current_emitter,
    emit,
    install_emitter,
    offer,
    render_live_status,
)


def decision(quantum: int, power: float) -> dict:
    return {
        "type": "decision",
        "quantum": quantum,
        "predicted_bips": [1.0, None],
        "measured_bips": [1.1, None],
        "predicted_p99_s": [0.05],
        "measured_p99_s": [0.06],
        "predicted_power_w": power,
        "measured_power_w": power + 1.0,
    }


SHARD_B = [
    {"type": "span", "name": "decide", "start_s": 0.0, "duration_s": 0.5},
    {"type": "counter", "name": "dds_evaluations", "value": 40},
    {"type": "counter", "name": "power_sum_w", "value": 0.1},
    {"type": "gauge", "name": "power_w", "value": 81.0},
    decision(1, 80.0),
    decision(3, 82.0),
]

SHARD_A = [
    {"type": "instant", "name": "accuracy.drift", "at_s": 0.2},
    {"type": "counter", "name": "dds_evaluations", "value": 2},
    {"type": "counter", "name": "power_sum_w", "value": 0.2},
    {"type": "histogram", "name": "p99_ms", "value": [1.0, 2.0]},
    decision(0, 70.0),
    decision(2, 71.0),
]


class TestRollingWindow:
    def test_empty_window_is_nan(self):
        window = RollingWindow("w", size=4)
        assert math.isnan(window.last)
        assert math.isnan(window.mean())
        assert math.isnan(window.percentile(99))
        assert window.rate() == 0.0

    def test_ages_out_old_samples_but_keeps_lifetime_count(self):
        window = RollingWindow("w", size=2)
        for value in (1.0, 2.0, 3.0):
            window.observe(value)
        assert len(window) == 2
        assert window.total == 3
        assert window.mean() == pytest.approx(2.5)
        assert window.last == 3.0

    def test_nan_samples_are_dropped(self):
        window = RollingWindow("w", size=4)
        window.observe(float("nan"))
        assert len(window) == 0 and window.total == 0

    def test_percentiles_interpolate(self):
        window = RollingWindow("w", size=8)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.observe(value)
        assert window.percentile(50) == pytest.approx(2.5)
        assert window.percentile(0) == 1.0
        assert window.percentile(100) == 4.0

    def test_rate_counts_nonzero_fraction(self):
        window = RollingWindow("w", size=4)
        for value in (0.0, 1.0, 1.0, 0.0):
            window.observe(value)
        assert window.rate() == pytest.approx(0.5)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            RollingWindow("w", size=0)


class TestOffer:
    def test_accepts_until_full_then_drops_with_callback(self):
        q: "queue.Queue" = queue.Queue(maxsize=2)
        dropped = []
        assert offer(q, {"n": 1}, dropped.append)
        assert offer(q, {"n": 2}, dropped.append)
        assert not offer(q, {"n": 3}, dropped.append)
        assert dropped == [{"n": 3}]
        assert q.qsize() == 2

    def test_never_raises_without_callback(self):
        q: "queue.Queue" = queue.Queue(maxsize=1)
        assert offer(q, 1)
        assert not offer(q, 2)


class TestEmitter:
    def test_stamps_unit_and_worker_and_counts(self):
        events = []
        emitter = LiveEmitter(CallbackSink(events.append),
                              unit_id="u/1", worker="w-0")
        assert emitter.emit("quantum", index=0)
        assert events == [
            {"index": 0, "kind": "quantum", "unit": "u/1", "worker": "w-0"}
        ]
        assert emitter.emitted == 1 and emitter.dropped == 0

    def test_backpressure_counts_drops(self):
        q: "queue.Queue" = queue.Queue(maxsize=2)
        emitter = LiveEmitter(q, unit_id="u/1")
        sent = [emitter.emit("quantum", index=i) for i in range(5)]
        assert sent == [True, True, False, False, False]
        assert emitter.emitted == 2 and emitter.dropped == 3

    def test_install_restores_prior(self):
        events = []
        emitter = LiveEmitter(CallbackSink(events.append), unit_id="u")
        assert current_emitter() is None
        assert emit("quantum") is False  # no-op without an emitter
        prior = install_emitter(emitter)
        try:
            assert prior is None
            assert current_emitter() is emitter
            assert emit("quantum", index=1)
        finally:
            install_emitter(prior)
        assert current_emitter() is None
        assert [e["kind"] for e in events] == ["quantum"]


class TestIncrementalMergeEquivalence:
    def test_float_counter_fold_order_matches(self):
        # 0.2 + 0.3 + 0.1 and 0.1 + 0.3 + 0.2 differ in the last bit;
        # merge_jsonl folds units in sorted order from int 0, so the
        # completion order of the shards must not leak into the total
        # the status view replays.
        shards = [
            ("z", [{"type": "counter", "name": "c", "value": 0.1}]),
            ("a", [{"type": "counter", "name": "c", "value": 0.2}]),
            ("m", [{"type": "counter", "name": "c", "value": 0.3}]),
        ]
        merged = merge_jsonl(shards)
        for order in (shards[::-1], shards[1:] + shards[:1]):
            again = merge_jsonl(order)
            assert (
                [json.dumps(r, sort_keys=True) for r in again]
                == [json.dumps(r, sort_keys=True) for r in merged]
            )
        assert merged == [{"type": "counter", "name": "c",
                           "value": 0.2 + 0.3 + 0.1}]
        replayed = LiveAggregator().replay(merged)
        assert replayed.counter_totals == {"c": 0.2 + 0.3 + 0.1}

    def test_duplicate_unit_raises(self):
        aggregator = LiveAggregator()
        aggregator.ingest("unit-a", SHARD_A)
        with pytest.raises(ValueError, match="duplicate unit id"):
            aggregator.ingest("unit-a", SHARD_A)

    def test_drift_instants_surface_in_rolling_state(self):
        aggregator = LiveAggregator()
        aggregator.ingest("unit-a", SHARD_A)
        assert len(aggregator.drift_events) == 1
        assert aggregator.drift_events[0]["name"] == "accuracy.drift"


class TestEventIngestion:
    def quantum(self, index, p99=9.0, power=80.0, budget=100.0,
                qos=False, power_violated=False, predicted=82.0):
        return {
            "kind": "quantum", "unit": "u/1", "worker": "w-0",
            "index": index, "lc_p99_ms": p99, "power_w": power,
            "budget_w": budget, "qos_violated": qos,
            "power_violated": power_violated,
            "predicted_power_w": predicted,
        }

    def test_quantum_events_feed_windows_and_tallies(self):
        aggregator = LiveAggregator()
        aggregator.ingest_event(self.quantum(0))
        aggregator.ingest_event(self.quantum(1, qos=True,
                                             power_violated=True))
        assert aggregator.quanta == 2
        assert aggregator.qos_violations == 1
        assert aggregator.power_violations == 1
        assert aggregator.window("quantum.lc_p99_ms").total == 2
        assert aggregator.window("quantum.headroom_pct").last == (
            pytest.approx(20.0)
        )
        assert aggregator.window("accuracy.power_err_pct").last == (
            pytest.approx(2.5)
        )

    def test_unit_lifecycle_and_drop_accounting(self):
        aggregator = LiveAggregator()
        aggregator.ingest_event(
            {"kind": "unit_started", "unit": "u/1", "worker": "w-0"}
        )
        assert aggregator.units["u/1"]["state"] == "running"
        aggregator.ingest_event(
            {"kind": "unit_finished", "unit": "u/1", "worker": "w-0",
             "ok": True, "dropped": 3}
        )
        assert aggregator.units["u/1"]["state"] == "done"
        assert aggregator.dropped_events == 3
        aggregator.record_drop(2)
        assert aggregator.dropped_events == 5

    def test_retry_and_fallback_tallies(self):
        aggregator = LiveAggregator()
        aggregator.ingest_event(
            {"kind": "unit_retry", "unit": "u/1", "worker": "w-0",
             "attempt": 2}
        )
        aggregator.ingest_event({"kind": "serial_fallback"})
        assert aggregator.retries == 1
        assert aggregator.serial_fallbacks == 1
        assert aggregator.workers["w-0"]["retries"] == 1
        assert aggregator.units["u/1"]["state"] == "retrying"

    def test_failed_unit_renders_in_status(self):
        aggregator = LiveAggregator()
        aggregator.ingest_event(
            {"kind": "unit_finished", "unit": "u/1", "ok": False,
             "dropped": 0}
        )
        text = render_live_status(aggregator)
        assert "1 FAILED" in text
        assert "[failed" in text


class TestReplay:
    def test_replay_matches_streamed_totals(self):
        merged = merge_jsonl(
            [("unit-a", SHARD_A), ("unit-b", SHARD_B)]
        ) + [
            {"type": "counter", "name": "harness.qos_violations",
             "value": 2},
            {"type": "counter", "name": "fleet.retries", "value": 1},
            {"type": "counter", "name": "live.dropped_events",
             "value": 4},
        ]
        aggregator = LiveAggregator().replay(merged)
        assert aggregator.quanta == 4
        assert aggregator.qos_violations == 2
        assert aggregator.retries == 1
        assert aggregator.dropped_events == 4
        assert aggregator.window("quantum.lc_p99_ms").total == 4
        assert sorted(aggregator.units) == ["unit-a", "unit-b"]

    def test_status_view_is_deterministic(self):
        merged = merge_jsonl([("unit-a", SHARD_A)])
        first = render_live_status(LiveAggregator().replay(merged))
        second = render_live_status(LiveAggregator().replay(merged))
        assert first == second
        assert "live fleet status" in first
        assert "unit-a" in first


class TestPrometheus:
    def test_snapshot_is_json_serialisable(self):
        aggregator = LiveAggregator()
        aggregator.ingest("unit-a", SHARD_A)
        aggregator.ingest_event(
            {"kind": "quantum", "unit": "u", "index": 0,
             "lc_p99_ms": 5.0, "power_w": 80.0, "budget_w": 100.0}
        )
        json.dumps(aggregator.snapshot())
