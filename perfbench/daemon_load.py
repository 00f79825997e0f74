"""The ``daemon`` workload: a real ``repro serve`` over TCP.

One client, two connections:

* **A** (closed loop) submits mix 0's LC job (xapian) and its 16 batch
  jobs across three tenants, then sends ``tick`` (count 1) and waits
  for the reply, over and over.  Every 10th tick it first moves the LC
  job's rate (``set_rps``); every 25th it cancels a running batch job
  and submits it again.
* **B** (open loop) sends ``status`` / ``jobs`` / ``decisions`` on a
  fixed wall-clock schedule, one every ``CONTROL_PERIOD_S``, whether or
  not earlier replies have come back.  Each is timed from its due
  time; how late the sender ran is the load generator's lag.

The daemon writes a snapshot after every tick (the shipped default)
and appends each decision to ``--decisions``.  It always runs with
``--seed`` :data:`DAEMON_SEED`; the workload seed draws the client's
choices.  Every choice is drawn from that seed or read from the
daemon's replies, so the decision stream repeats exactly for a seed.
"""

from __future__ import annotations

import bisect
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from common import (
    BENCH_DIR,
    CONTROL_PERIOD_S,
    BenchmarkError,
    HostSpeed,
    child_env,
    die_with_parent,
    digest_lines,
    median,
    peak_rss_mib_of,
    scale,
    timed_quanta,
)

MIX = 0
#: The daemon's own simulator/policy seed (``ServerConfig``'s default).
#: It is fixed because it decides how many (load bucket, cores)
#: regimes the LC core search visits, each of which stays in every
#: later snapshot: across simulator seeds the state file ended at
#: 0.9-1.7 MB and the p50 tick at 142-187 ms, a 20 % spread.
DAEMON_SEED = 7
#: Ticks excluded from the timed phase (admission, cold regimes).
WARMUP_TICKS = 10
#: Decision lines digested and scored for QoS/power/throughput.
PREFIX_TICKS = 100
#: Typical ticks per second of wall time (sizes a run's work).
TICKS_PER_S = 5.0
BOOT_TIMEOUT_S = 120.0
SHUTDOWN_TIMEOUT_S = 30.0
BATCH_JOBS = 16
TENANTS = ("t0", "t1", "t2")
SET_RPS_EVERY = 10
CHURN_EVERY = 25
#: LC rates, as fractions of the service's QoS knee (max_qps), that
#: ``set_rps`` cycles through.  Fixed levels in a fixed order keep the
#: cold regimes they cause the same for every seed.
RPS_LEVELS = (0.35, 0.5, 0.65)
CONTROL_OPS = (
    {"op": "status"},
    {"op": "jobs"},
    {"op": "decisions", "limit": 20},
)


def _ok(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise BenchmarkError(f"daemon answered ok=false: {response}")
    return response


class DaemonProcess:
    """A ``repro serve`` subprocess, reaped on exit whatever happened.

    ``spans`` set starts it through ``traced_serve.py``, which wraps
    the layers before the daemon is built and writes the spans there
    on shutdown.
    """

    def __init__(self, run_dir: Path, tag: str,
                 spans: Optional[Path] = None) -> None:
        self.port_file = run_dir / f"{tag}.port"
        self.state = run_dir / f"{tag}.state.json"
        self.decisions = run_dir / f"{tag}.decisions.jsonl"
        serve = [
            "--seed", str(DAEMON_SEED), "serve", "--mix", str(MIX),
            "--port", "0", "--port-file", str(self.port_file),
            "--state", str(self.state),
            "--decisions", str(self.decisions),
            "--whatif-jobs", "1",
        ]
        if spans is None:
            self.argv = [sys.executable, "-m", "repro", *serve]
        else:
            self.argv = [
                sys.executable, str(BENCH_DIR / "traced_serve.py"),
                "--spans", str(spans), "--", *serve,
            ]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.boot_s = 0.0

    def __enter__(self) -> "DaemonProcess":
        from repro.server.script import ScriptedClient

        self.port_file.unlink(missing_ok=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=child_env(), preexec_fn=die_with_parent
        )
        try:
            while not (
                self.port_file.exists() and self.port_file.read_text().strip()
            ):
                if self.proc.poll() is not None:
                    raise BenchmarkError(
                        f"daemon exited at boot with code "
                        f"{self.proc.returncode}"
                    )
                if time.perf_counter() - start > BOOT_TIMEOUT_S:
                    raise BenchmarkError("daemon did not bind in time")
                time.sleep(0.005)
            self.port = int(self.port_file.read_text())
            with ScriptedClient("127.0.0.1", self.port) as client:
                _ok(client.request({"op": "hello"}))
            self.boot_s = time.perf_counter() - start
        except BaseException:
            self._reap(graceful=False)
            raise
        return self

    def client(self) -> Any:
        from repro.server.script import ScriptedClient

        return ScriptedClient("127.0.0.1", self.port)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._reap(graceful=exc_type is None)

    def _reap(self, graceful: bool) -> None:
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        if graceful:
            try:
                with self.client() as client:
                    _ok(client.request({"op": "shutdown"}))
                proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
                if proc.returncode != 0:
                    raise BenchmarkError(
                        f"daemon exited with code {proc.returncode}"
                    )
                return
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        proc.kill()
        proc.wait()


class OpenLoop:
    """Connection B: requests sent on schedule, replies read apart."""

    def __init__(self, client: Any) -> None:
        self.client = client
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[float] = []
        self.errors: List[Exception] = []
        self.started = False
        self._stop = threading.Event()
        self._sender_done = threading.Event()
        #: One permit per request whose reply has not been read yet.
        self._owed = threading.Semaphore(0)
        self._sender = threading.Thread(target=self._send, daemon=True)
        self._reader = threading.Thread(target=self._read, daemon=True)

    def start(self) -> None:
        self._start = time.perf_counter()
        self.started = True
        self._sender.start()
        self._reader.start()

    def _send(self) -> None:
        try:
            i = 0
            while not self._stop.is_set():
                due = self._start + i * CONTROL_PERIOD_S
                wait = due - time.perf_counter()
                if wait > 0 and self._stop.wait(wait):
                    break
                self.client.send(dict(CONTROL_OPS[i % len(CONTROL_OPS)]))
                self.due.append(due)
                self.sent.append(time.perf_counter())
                self._owed.release()
                i += 1
        except Exception as exc:  # surfaced by stop()
            self.errors.append(exc)
        finally:
            self._sender_done.set()

    def _read(self) -> None:
        try:
            while True:
                if not self._owed.acquire(timeout=0.05):
                    if not self._sender_done.is_set():
                        continue
                    # The sender released every permit before it set
                    # the flag, so an empty count now means drained.
                    if not self._owed.acquire(blocking=False):
                        return
                line = self.client.read_line()
                if line is None:
                    raise ConnectionError("daemon closed connection B")
                _ok(line)
                self.done.append(time.perf_counter())
        except Exception as exc:  # surfaced by stop()
            self.errors.append(exc)

    def stop(self) -> None:
        """Stop sending, read every reply still owed, raise on errors."""
        if not self.started:
            return
        self._stop.set()
        self._sender.join(timeout=SHUTDOWN_TIMEOUT_S)
        self._reader.join(timeout=SHUTDOWN_TIMEOUT_S)
        if self._sender.is_alive() or self._reader.is_alive():
            raise BenchmarkError("connection B did not drain in time")
        if self.errors:
            raise BenchmarkError(f"connection B failed: {self.errors[0]!r}")


class JobScript:
    """Connection A's submissions and churn.

    The jobs are mix 0's own LC service and 16 batch applications, with
    priorities 0, 1, 2 in turn, so every seed hosts the same work; the
    seed draws which job churns.
    """

    def __init__(self, seed: int) -> None:
        from repro.workloads.latency_critical import lc_service
        from repro.workloads.mixes import paper_mixes

        mix = paper_mixes()[MIX]
        self.rng = np.random.default_rng(seed)
        self.levels = list(RPS_LEVELS)
        self.lc_name = mix.lc_name
        self.batch_names = list(mix.batch_names)
        self.max_qps = lc_service(mix.lc_name).max_qps
        self.lc_job = ""
        #: Submit request of every live batch job, by job id.
        self.batch_specs: Dict[str, Dict[str, Any]] = {}
        self.churned = 0
        self.requests = 0

    def request(self, client: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        self.requests += 1
        return _ok(client.request(request))

    def rps(self) -> float:
        """The next LC rate in the cycle."""
        self.levels.append(self.levels.pop(0))
        return self.max_qps * self.levels[-1]

    def submit_batch(self, client: Any, spec: Dict[str, Any]) -> None:
        reply = self.request(client, spec)
        self.batch_specs[reply["job"]["job_id"]] = spec

    def submit_all(self, client: Any) -> None:
        reply = self.request(client, {
            "op": "submit", "kind": "lc", "name": self.lc_name,
            "tenant": TENANTS[0], "rps": self.rps(),
        })
        self.lc_job = reply["job"]["job_id"]
        for i, name in enumerate(self.batch_names):
            self.submit_batch(client, {
                "op": "submit", "kind": "batch", "name": name,
                "tenant": TENANTS[i % len(TENANTS)],
                "priority": i % 3,
            })

    def before_tick(self, client: Any, tick: int,
                    last: Optional[Dict[str, Any]]) -> None:
        """Control-plane moves due before 1-based tick ``tick``."""
        if tick % SET_RPS_EVERY == 0:
            self.request(client, {
                "op": "set_rps", "job_id": self.lc_job, "rps": self.rps(),
            })
        if tick % CHURN_EVERY == 0 and last is not None:
            running = sorted(last["jobs"]["batch"].values())
            if running:
                victim = running[int(self.rng.integers(len(running)))]
                self.request(client, {"op": "cancel", "job_id": victim})
                self.submit_batch(client, self.batch_specs.pop(victim))
                self.churned += 1


def run_daemon(seed: int, seconds: float, run_dir: Path, tag: str,
               boots: int, spans: Optional[Path] = None) -> Dict[str, Any]:
    """Boot ``boots`` daemons (the last one serves the session)."""
    speed = HostSpeed()
    boot_s: List[float] = []
    for b in range(boots - 1):
        before = speed.sample()
        with DaemonProcess(run_dir, f"{tag}-boot{b}") as daemon:
            boot_s.append(daemon.boot_s * scale(before, speed.sample()))
    before = speed.sample()
    with DaemonProcess(run_dir, tag, spans) as daemon:
        boot_s.append(daemon.boot_s * scale(before, speed.sample()))
        result = _session(daemon, seed, seconds, speed)
    result["setup_s"] = median(boot_s)
    result.update(_score(daemon, result["ticks"]))
    return result


def _session(daemon: DaemonProcess, seed: int, seconds: float,
             speed: HostSpeed) -> Dict[str, Any]:
    script = JobScript(seed)
    rtt_ms: List[float] = []
    tick_end: List[float] = []
    #: Kernel samples between ticks: one before each, one after the last.
    calibration: List[float] = []
    with daemon.client() as a, daemon.client() as b:
        script.submit_all(a)
        loop = OpenLoop(b)
        last: Optional[Dict[str, Any]] = None
        ticks = max(
            WARMUP_TICKS + timed_quanta(seconds, TICKS_PER_S), PREFIX_TICKS
        )
        bytes_first = 0
        try:
            for tick in range(1, ticks + 1):
                if tick == WARMUP_TICKS + 1:
                    loop.start()
                script.before_tick(a, tick, last)
                calibration.append(speed.sample())
                t0 = time.perf_counter()
                reply = _ok(a.request({"op": "tick", "count": 1}))
                tick_end.append(time.perf_counter())
                rtt_ms.append((tick_end[-1] - t0) * 1e3)
                last = reply["decisions"][-1]
                if tick == 1:
                    bytes_first = daemon.state.stat().st_size
            calibration.append(speed.sample())
        finally:
            loop.stop()
        bytes_last = daemon.state.stat().st_size
        peak = peak_rss_mib_of(daemon.proc.pid)
    return {
        "ticks": ticks,
        "warmup_quanta": WARMUP_TICKS,
        "quantum_ms": rtt_ms[WARMUP_TICKS:],
        "calibration_ms": calibration[WARMUP_TICKS:],
        "tick_rtt_ms": rtt_ms,
        "control_ms": [
            (d - t) * 1e3 for t, d in zip(loop.due, loop.done)
        ],
        "control_lag_ms": [
            (s - t) * 1e3 for t, s in zip(loop.due, loop.sent)
        ],
        # A control request waits behind the tick in progress when it
        # completes: the first tick to end at or after its reply.
        "control_quantum": [
            min(bisect.bisect_left(tick_end, d), ticks - 1) - WARMUP_TICKS
            for d in loop.done
        ],
        "attempted": script.requests + ticks + len(loop.sent),
        "peak_rss_mib": peak,
        "snapshot_bytes_first": bytes_first,
        "snapshot_bytes_last": bytes_last,
        "churned_jobs": script.churned,
    }


def _score(daemon: DaemonProcess, ticks: int) -> Dict[str, Any]:
    """Gate and score the decision stream the daemon wrote."""
    from repro.experiments.harness import PolicyRun
    from repro.sim.machine import measurement_from_state

    lines = daemon.decisions.read_text(encoding="utf-8").splitlines()
    if len(lines) != ticks:
        raise BenchmarkError(
            f"{len(lines)} decision lines for {ticks} ticks sent"
        )
    records = [json.loads(line) for line in lines[:PREFIX_TICKS]]
    state = json.loads(daemon.state.read_text(encoding="utf-8"))
    measured = state["stepper"]["run"]["measurements"][:PREFIX_TICKS]
    run = PolicyRun(
        policy_name="cuttlesys", power_budget_w=0.0,
        measurements=[measurement_from_state(m) for m in measured],
    )
    n = len(records)
    return {
        "digest": digest_lines(lines[:PREFIX_TICKS]),
        "digest_quanta": n,
        "failed": int(json.loads(lines[-1])["degraded"]),
        "qos_met_ratio": 1.0 - sum(r["qos_violated"] for r in records) / n,
        "power_met_ratio": (
            1.0 - sum(r["power_violated"] for r in records) / n
        ),
        "batch_gmean_bips": float(np.mean(run.gmean_throughput_series())),
    }
