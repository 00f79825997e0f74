"""Tests for the deterministic virtual-cost profiler.

The call tree must aggregate spans by name path with correct
inclusive/exclusive attribution, the operation-counter surface must be
byte-identical across runs and shard orders (the CI diff contract),
and the folded-stack / Chrome-trace exports must be loadable.
"""

import io
import json

import pytest

from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import build_machine_for_mix, run_policy
from repro.telemetry import Telemetry, merge_jsonl, read_jsonl, write_jsonl
from repro.telemetry.profiler import (
    build_profile,
    chrome_trace_from_profile,
    folded_stacks,
    phase_summary,
    profile_telemetry,
    render_phase_table,
    render_profile_table,
    write_folded,
    write_profile_chrome_trace,
)
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


def span(sid, name, dur_us, parent=-1, cat="", **args):
    return {
        "type": "span", "id": sid, "name": name, "cat": cat,
        "start_us": 0.0, "dur_us": float(dur_us),
        "parent": parent, "args": args,
    }


#: quantum(100) -> decide(60) -> dds.search(40, 10 evals)
#: plus a second quantum instance merged into the same paths.
SPANS = [
    span(1, "quantum", 100.0),
    span(2, "decide", 60.0, parent=1),
    span(3, "dds.search", 40.0, parent=2, evaluations=10),
    span(4, "quantum", 80.0),
    span(5, "decide", 50.0, parent=4),
    span(6, "dds.search", 30.0, parent=5, evaluations=7),
]


def session(seed=7, n_slices=2):
    machine = build_machine_for_mix(paper_mixes()[0], seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed)
    telemetry = Telemetry()
    run_policy(
        machine, policy, LoadTrace.constant(0.8),
        power_cap_fraction=0.7, n_slices=n_slices, telemetry=telemetry,
    )
    return telemetry


def records_of(telemetry):
    buffer = io.StringIO()
    write_jsonl(telemetry, buffer)
    buffer.seek(0)
    return read_jsonl(buffer)


class TestBuildProfile:
    def test_tree_shape_and_attribution(self):
        root = build_profile(SPANS)
        assert set(root.children) == {"quantum"}
        quantum = root.children["quantum"]
        assert quantum.count == 2
        assert quantum.inclusive_us == pytest.approx(180.0)
        # 100-60 plus 80-50 of self time.
        assert quantum.exclusive_us == pytest.approx(70.0)
        decide = quantum.children["decide"]
        assert decide.exclusive_us == pytest.approx(40.0)
        search = decide.children["dds.search"]
        assert search.ops == {"evaluations": 17}
        assert search.exclusive_us == pytest.approx(70.0)

    def test_non_span_records_ignored(self):
        root = build_profile(
            SPANS + [{"type": "counter", "name": "x.y", "value": 3}]
        )
        assert set(root.children) == {"quantum"}

    def test_units_merge_by_name_path(self):
        tagged = [{**s, "unit": "u1"} for s in SPANS[:3]] + [
            {**s, "unit": "u2"} for s in SPANS[3:]
        ]
        merged = build_profile(tagged)
        split = build_profile(SPANS)
        assert render_profile_table(
            merged, ops_only=True
        ) == render_profile_table(split, ops_only=True)


class TestExports:
    def test_folded_stacks_weights(self):
        root = build_profile(SPANS)
        ops = folded_stacks(root, weight="ops")
        assert "quantum;decide;dds.search 17\n" == ops
        count = folded_stacks(root, weight="count")
        assert "quantum 2" in count
        excl = folded_stacks(root, weight="exclusive_us")
        assert "quantum;decide 40" in excl
        with pytest.raises(ValueError):
            folded_stacks(root, weight="inclusive_us")

    def test_chrome_trace_shape(self):
        root = build_profile(SPANS)
        events = chrome_trace_from_profile(root)
        assert events[0]["ph"] == "M"
        timed = events[1:]
        assert [e["name"] for e in timed] == [
            "quantum", "decide", "dds.search",
        ]
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        assert timed[-1]["args"]["evaluations"] == 17

    def test_file_writers(self, tmp_path):
        root = build_profile(SPANS)
        folded = tmp_path / "profile.folded"
        assert write_folded(root, folded, weight="ops") == 1
        assert folded.read_text().endswith(" 17\n")
        trace = tmp_path / "trace.json"
        assert write_profile_chrome_trace(root, trace) == 4
        payload = json.loads(trace.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 4


class TestDeterminism:
    def test_ops_table_is_byte_identical_across_runs(self):
        tables = [
            render_profile_table(
                profile_telemetry(session()), ops_only=True
            )
            for _ in range(2)
        ]
        assert tables[0] == tables[1]
        assert "evaluations=" in tables[0]

    def test_ops_table_is_shard_order_independent(self):
        # merge_jsonl output is content-ordered, so the profile of a
        # fleet-merged log cannot depend on which worker finished
        # first — the --jobs byte-identity CI gate in miniature.
        shard_a = records_of(session(seed=7))
        shard_b = records_of(session(seed=11))
        first = merge_jsonl([("a", shard_a), ("b", shard_b)])
        second = merge_jsonl([("b", shard_b), ("a", shard_a)])
        assert render_profile_table(
            build_profile(first), ops_only=True
        ) == render_profile_table(build_profile(second), ops_only=True)

    def test_folded_ops_stacks_stable(self):
        assert folded_stacks(
            profile_telemetry(session()), weight="ops"
        ) == folded_stacks(profile_telemetry(session()), weight="ops")


class TestPhaseSummary:
    def test_real_session_phase_rows(self):
        root = profile_telemetry(session())
        rows = {entry["phase"]: entry for entry in phase_summary(root)}
        assert "sgd.reconstruct" in rows
        assert "dds.search" in rows
        assert "controller.overhead" in rows
        assert rows["dds.search"]["ops"]["evaluations"] > 0
        assert rows["sgd.reconstruct"]["ops"]["iterations"] > 0
        # Controller overhead is pure bookkeeping: no metered ops.
        assert rows["controller.overhead"]["ops"] == {}

    def test_render_phase_table(self):
        table = render_phase_table(profile_telemetry(session()))
        assert table.startswith("phase costs")
        assert "sgd.reconstruct" in table
        assert "dds.search" in table
        assert "controller.overhead" in table
