"""Tests of the decision-quantum benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced with ``--seconds 1``
(every run still collects its minimum of 100 timed quanta), so the
module takes about five minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SEED = 9001


def _run(runs_dir: Path, workload: str, trace: int, cwd: Path = common.ROOT):
    env = dict(os.environ, PERFBENCH_RUNS_DIR=str(runs_dir))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module", params=["steady", "diurnal", "daemon"])
def runs(request, tmp_path_factory):
    """One untraced then one traced run of a workload, same seed."""
    runs_dir = tmp_path_factory.mktemp("runs")
    untraced = _run(runs_dir, request.param, 0)
    traced = _run(runs_dir, request.param, 1)
    for proc in (untraced, traced):
        assert proc.returncode == 0, proc.stderr
    return request.param, untraced.stdout, traced.stdout


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _check_metrics(result: dict, declared: list) -> dict:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    return {name: m["value"] for name, m in metrics.items()}


def test_end_to_end_metrics(runs):
    workload, untraced, _ = runs
    values = _check_metrics(_result(untraced), SPEC["end_to_end"])
    for name, value in values.items():
        assert value > 0, f"{workload}: {name} reads {value}"
    assert "first run of this seed here" in untraced


def test_traced_digest_matches_untraced_and_repeat(runs):
    _, _, traced = runs
    assert "matches the earlier run, traced == untraced" in traced


def test_layer_shape(runs):
    workload, _, traced = runs
    values = _check_metrics(_result(traced), SPEC["per_layer"])
    on_daemon = workload == "daemon"
    assert (values["server.snapshot.ms"] > 0) == on_daemon
    assert (values["telemetry.audit.ms"] > 0) == on_daemon
    assert (values["server.tick.ms"] > 0) == on_daemon
    assert values["dds.evaluations"] > 0
    if workload == "steady":
        assert values["mgk.rows.calls"] == 0
        leaves = [
            "sgd.reconstruct.ms", "mgk.rows.ms", "runtime.observe.ms",
            "machine.profile.ms", "machine.run_slice.ms",
            "controller.decide.self_ms", "harness.step.self_ms",
        ]
        assert all(values["dds.search.ms"] > values[m] for m in leaves)
    if workload == "diurnal":
        assert values["mgk.rows.calls"] > 0
        builds = [
            int(field.split("=")[1])
            for line in traced.splitlines() if line.startswith("property ")
            for field in line.split()
            if "_regime_builds=" in field
        ]
        assert len(builds) == 5 and all(n > 0 for n in builds)
    if on_daemon:
        assert values["workload.churned_jobs"] > 0
        assert (
            values["server.snapshot.bytes_last"]
            > values["server.snapshot.bytes_first"] > 0
        )


def test_self_time_subtracts_direct_children():
    spans = [
        ["harness.step", 0.0, 10.0, -1, 0.0],
        ["runtime.decide", 1.0, 7.0, 0, 0.0],
        ["dds.search", 2.0, 5.0, 1, 6.0],
        ["machine.run_slice", 7.5, 9.0, 0, 2.0],
        ["harness.step", 10.0, 20.0, -1, 0.0],
    ]
    values = layers.per_layer(spans, "harness.step", 0, [1.0, 0.5])
    # Times are ms per counted quantum, after each root's scale factor.
    assert values["harness.step.ms"] == pytest.approx((10e3 + 5e3) / 2)
    assert values["harness.step.self_ms"] == pytest.approx(
        (10e3 - 6e3 - 1.5e3 + 5e3) / 2
    )
    assert values["dds.search.ms"] == pytest.approx(3e3 / 2)
    assert values["dds.evaluations"] == pytest.approx(3.0)
    assert values["machine.reconfigurations"] == pytest.approx(1.0)
    with pytest.raises(common.BenchmarkError):
        layers.per_layer(spans, "harness.step", 1, [1.0, 1.0])


def _daemon_pids(marker: str) -> list:
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if marker.encode() in cmdline and b"serve" in cmdline:
                pids.append(int(entry.name))
    return pids


def test_daemon_reaped_when_session_fails(tmp_path, monkeypatch):
    common.use_sources()
    import daemon_load

    started = []
    enter = daemon_load.DaemonProcess.__enter__

    def record(self):
        started.append(self)
        return enter(self)

    def bad_request(self, client, tick, last):
        if tick == 3:
            self.request(client, {"op": "cancel", "job_id": "j999999"})

    monkeypatch.setattr(daemon_load.DaemonProcess, "__enter__", record)
    monkeypatch.setattr(daemon_load.JobScript, "before_tick", bad_request)
    with pytest.raises(common.BenchmarkError, match="ok=false"):
        daemon_load.run_daemon(SEED, 1.0, tmp_path, "fail", boots=1)
    assert started and all(d.proc.poll() is not None for d in started)
    assert _daemon_pids(str(tmp_path)) == []


def test_sigterm_reaps_daemon(tmp_path):
    env = dict(os.environ, PERFBENCH_RUNS_DIR=str(tmp_path))
    bench = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "daemon",
         "--seed", str(SEED), "--seconds", "60", "--trace", "0"],
        cwd=common.ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 60
        while not _daemon_pids(str(tmp_path)) and time.time() < deadline:
            time.sleep(0.1)
        assert _daemon_pids(str(tmp_path)), "daemon never started"
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=30) != 0
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    deadline = time.time() + 10
    while _daemon_pids(str(tmp_path)) and time.time() < deadline:
        time.sleep(0.1)
    assert _daemon_pids(str(tmp_path)) == []


def test_checkout_without_sources_fails_fast(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".runs", "__pycache__"),
    )
    proc = _run(tmp_path / "runs", "steady", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "program sources not found" in proc.stderr
