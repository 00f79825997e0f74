"""QuantumDriver and CommandExecutor tests, including crash/resume.

These run the daemon's core without sockets: the driver is built
directly, ticked, "killed" (dropped), rebuilt, and resumed — the
decision stream must come out byte-identical to an uninterrupted run.
"""

import json

import pytest

from repro.server.admission import JobSpec
from repro.server.driver import (
    IDLE_LC_LOAD,
    QuantumDriver,
    ServerConfig,
)
from repro.server.session import CommandExecutor

SEED = 3
MIX = 0


def make_driver(tmp_path, name="run", resume=False, **overrides):
    kwargs = dict(
        mix=MIX, seed=SEED, max_quanta=30,
        state_path=str(tmp_path / f"{name}_state.json"),
        decisions_path=str(tmp_path / f"{name}_dec.jsonl"),
        resume=resume,
    )
    kwargs.update(overrides)
    return QuantumDriver(ServerConfig(**kwargs))


def scripted_actions(driver):
    """The deterministic submission schedule both runs replay."""
    service = driver.machine.lc_services[0]
    return {
        0: [
            lambda: driver.admission.submit(
                JobSpec(kind="lc", name=service.name,
                        rps=service.max_qps * 0.5),
                driver.quantum,
            ),
            lambda: driver.admission.submit(
                JobSpec(kind="batch", name="astar"), driver.quantum
            ),
        ],
        3: [lambda: driver.set_rps(
            "j000001", service.max_qps * 0.9
        )],
        5: [lambda: driver.admission.submit(
            JobSpec(kind="batch", name="bzip2", priority=2),
            driver.quantum,
        )],
        7: [lambda: driver.cancel_job("j000002")],
    }


def run_quanta(driver, start, stop):
    actions = scripted_actions(driver)
    for i in range(start, stop):
        for action in actions.get(i, []):
            action()
        driver.tick()


class TestDriverBasics:
    def test_boots_with_all_batch_slots_vacant(self, tmp_path):
        driver = make_driver(tmp_path)
        record = driver.tick()
        assert record["jobs"]["batch"] == {}
        assert record["assignment"]["batch"] == [None] * len(
            driver.machine.batch_profiles
        )
        assert driver.lc_loads[0].level == IDLE_LC_LOAD

    def test_admitted_jobs_appear_in_decisions(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 2)
        record = driver.recent_decisions(since=1)[0]
        assert record["jobs"]["batch"] == {"0": "j000002"}
        assert record["jobs"]["lc"] == {
            driver.machine.lc_services[0].name: "j000001"
        }
        assert record["assignment"]["batch"][0] is not None

    def test_cancel_unbinds_batch_slot(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 8)
        record = driver.recent_decisions(since=driver.quantum - 1)[0]
        assert "j000002" not in record["jobs"]["batch"].values()

    def test_set_rps_moves_lc_load(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 4)
        assert driver.lc_loads[0].level == pytest.approx(0.9)

    def test_bad_mix_index_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            QuantumDriver(ServerConfig(mix=999))

    def test_decision_flags_agree_with_policyrun(self, tmp_path):
        # A tight cap makes both constraints trip within ten quanta.
        driver = make_driver(tmp_path, power_cap_fraction=0.4)
        run_quanta(driver, 0, 10)
        lines = (tmp_path / "run_dec.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        run = driver.stepper.run
        qos = sum(r["qos_violated"] for r in records)
        power = sum(r["power_violated"] for r in records)
        assert qos > 0 and power > 0
        assert qos == run.qos_violations()
        assert power == run.power_violations()

    def test_tick_beyond_max_quanta_raises(self, tmp_path):
        driver = make_driver(tmp_path, max_quanta=2)
        driver.tick()
        driver.tick()
        with pytest.raises(RuntimeError):
            driver.tick()


class TestCrashResume:
    def test_decision_stream_byte_identical_across_resume(self, tmp_path):
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 12)
        ref_bytes = (tmp_path / "ref_dec.jsonl").read_bytes()

        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 6)
        del victim  # simulated SIGKILL: no shutdown hook runs

        resumed = make_driver(tmp_path, "vic", resume=True)
        resumed.resume_from(str(tmp_path / "vic_state.json"))
        assert resumed.quantum == 6
        run_quanta(resumed, 6, 12)
        assert (tmp_path / "vic_dec.jsonl").read_bytes() == ref_bytes

    def test_resume_truncates_orphan_decision_lines(self, tmp_path):
        """A crash between append and snapshot leaves extra lines; the
        resume rewinds them and re-executes byte-identically."""
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 10)
        ref_bytes = (tmp_path / "ref_dec.jsonl").read_bytes()

        victim = make_driver(
            tmp_path, "vic", snapshot_every=4
        )
        run_quanta(victim, 0, 6)  # snapshot at 4; lines 5-6 orphaned
        del victim

        resumed = make_driver(
            tmp_path, "vic", resume=True, snapshot_every=4
        )
        resumed.resume_from(str(tmp_path / "vic_state.json"))
        assert resumed.quantum == 4
        assert len(
            (tmp_path / "vic_dec.jsonl").read_text().splitlines()
        ) == 4
        run_quanta(resumed, 4, 10)
        assert (tmp_path / "vic_dec.jsonl").read_bytes() == ref_bytes

    def test_resume_rejects_config_mismatch(self, tmp_path):
        driver = make_driver(tmp_path, "a")
        driver.tick()
        other = make_driver(tmp_path, "a", resume=True, seed=SEED + 1)
        with pytest.raises(ValueError):
            other.resume_from(str(tmp_path / "a_state.json"))


class TestCommandExecutor:
    def test_submit_and_status_counters(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        ok = executor.execute({
            "op": "submit", "kind": "batch", "name": "astar",
        })
        assert ok["ok"] and ok["job"]["state"] == "queued"
        bad = executor.execute({
            "op": "submit", "kind": "batch", "name": "no_such_app",
        })
        assert bad["job"]["state"] == "rejected"
        assert bad["job"]["reason"] == "unknown_app"
        executor.execute({"op": "tick"})
        status = executor.execute({"op": "status"})
        assert status["admission"]["submitted"] == 2
        assert status["admission"]["admitted"] == 1
        assert status["admission"]["rejected"] == 1
        assert status["driver"]["quantum"] == 1

    def test_tick_batches_and_bounds(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        resp = executor.execute({"op": "tick", "count": 3})
        assert resp["quantum"] == 3
        assert [r["quantum"] for r in resp["decisions"]] == [0, 1, 2]
        assert executor.execute(
            {"op": "tick", "count": 0}
        )["code"] == "bad_request"

    def test_unknown_job_errors(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        resp = executor.execute({"op": "cancel", "job_id": "j000099"})
        assert resp["ok"] is False and resp["code"] == "unknown_job"

    def test_whatif_dry_run_has_no_side_effects(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        resp = executor.execute({
            "op": "whatif", "kind": "batch", "name": "astar",
        })
        assert resp["verdict"] == "admit"
        reject = executor.execute({
            "op": "whatif", "kind": "lc", "name": "nope", "rps": 1.0,
        })
        assert reject["verdict"] == "reject"
        assert reject["reason"] == "unknown_service"
        status = executor.execute({"op": "status"})
        assert status["admission"]["submitted"] == 0

    def test_ladder_and_decisions_queries(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        executor.execute({"op": "tick", "count": 2})
        ladder = executor.execute({"op": "ladder"})["ladder"]
        assert ladder["degraded_quanta"] == 0
        decisions = executor.execute(
            {"op": "decisions", "since": 1}
        )["decisions"]
        assert [d["quantum"] for d in decisions] == [1]

    def test_responses_are_json_serializable(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        for op in ({"op": "hello"}, {"op": "status"}, {"op": "tick"},
                   {"op": "jobs"}, {"op": "ladder"}):
            json.dumps(executor.execute(dict(op)), sort_keys=True)
