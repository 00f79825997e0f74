"""Shared plumbing of the decision-quantum benchmark.

Every process the benchmark launches pins the BLAS and OpenMP thread
pools to one thread (:data:`PINNED_ENV`) and runs on one CPU, finds
the program's sources under ``src/`` of the checkout, and reports
through plain JSON files.  :class:`HostSpeed` turns wall times into
reference times that do not swing with the host's load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Per-run scratch files and the digest store; ignored by git.  The
#: benchmark's tests point ``PERFBENCH_RUNS_DIR`` at a temporary one.
RUNS_DIR = Path(os.environ.get("PERFBENCH_RUNS_DIR", BENCH_DIR / ".runs"))

#: One thread per native pool: the box has few cores, and a pool that
#: spins up extra threads changes the steady p50 by ~15 %.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Reported times are in reference milliseconds: wall time scaled by
#: CAL_REF_MS over the calibration kernel's time measured next to it.
#: 1.25 ms is the kernel's time on an uncontended 2 GHz Xeon core.
CAL_REF_MS = 1.25
#: Timed quanta a run collects at least, however short ``--seconds``:
#: a p90 needs ten samples beyond it.
MIN_TIMED_QUANTA = 100
#: Open-loop control requests: one due every CONTROL_PERIOD_S seconds.
CONTROL_PERIOD_S = 0.1


class BenchmarkError(RuntimeError):
    """A correctness gate failed or the program misbehaved."""


def timed_quanta(seconds: float, per_s: float) -> int:
    """Quanta a run times: ``--seconds`` at the workload's typical rate.

    Runs do a fixed amount of work rather than stopping on the clock,
    so what a run does (its cold-regime share, how far the daemon's
    state file grows) never depends on how fast the host is running.
    """
    return max(MIN_TIMED_QUANTA, round(seconds * per_s))


def pin_threads() -> None:
    """Pin native thread pools in this process and every child."""
    os.environ.update(PINNED_ENV)


def child_env() -> Dict[str, str]:
    """Environment for a launched process: pinned, sources on the path."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def pin_cpu() -> int:
    """Run this process and its children on one CPU; returns it.

    The calibration kernel can only speak for the core the measured
    work ran on, so the decision loop, the daemon and the client that
    calibrates share one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Times a fixed kernel to track how fast the host runs right now.

    Shared hosts change speed by up to ~1.8x for seconds at a time when
    a neighbour loads the physical core, and different kinds of code
    slow by different amounts (NumPy small-array calls ~1.7x, scalar
    Python ~1.5x, JSON encoding ~1.65x).  The kernel mixes the three
    kinds the decision loop runs (DDS-style gathers and exp/log/mean,
    Erlang-style scalar series, snapshot-style JSON encoding) and calls
    none of the program's code, so a change to the program moves the
    scaled times and never the kernel.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._table = rng.random((16, 108))
        self._start = rng.integers(0, 108, size=(16, 16))
        self._cols = np.arange(16)[None, :]
        self._doc = [[i * 0.1234567 for i in range(50)] for _ in range(20)]
        self.sample()

    def sample(self) -> float:
        """Kernel time in ms: the faster of two runs, so a moment of
        contention from another process does not read as a slow host."""
        return min(self._run(), self._run())

    def _run(self) -> float:
        np = self._np
        start = time.perf_counter()
        xs = self._start.copy()
        best = 0.0
        for i in range(25):
            values = self._table[self._cols, xs]
            gmean = np.exp(np.mean(np.log(np.maximum(values, 1e-12)), axis=1))
            best = max(best, float(gmean[int(np.argmax(gmean))]))
            xs[:, i % 16] = (xs[:, i % 16] + 7) % 108
        for n in range(1, 400):
            a = n * 0.01
            term = total = 1.0
            for k in range(1, 8):
                term *= a / k
                total += term
            best += math.exp(-a) * total
        best += len(json.dumps(self._doc, sort_keys=True))
        elapsed = (time.perf_counter() - start) * 1e3
        if best <= 0.0:
            raise BenchmarkError("calibration kernel produced no value")
        return elapsed


def scale(before_ms: float, after_ms: float) -> float:
    """Factor turning wall time into reference time, from the kernel
    samples taken just before and just after the measured work."""
    return 2.0 * CAL_REF_MS / (before_ms + after_ms)


def scales(calibration_ms: Sequence[float]) -> list:
    """Per-interval factors from samples taken between intervals."""
    return [
        scale(a, b) for a, b in zip(calibration_ms, calibration_ms[1:])
    ]


def die_with_parent() -> None:
    """``preexec_fn``: the child is killed if the benchmark dies first
    (Linux ``PR_SET_PDEATHSIG``), so no ``repro serve`` is orphaned."""
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True)
    pr_set_pdeathsig = 1
    libc.prctl(pr_set_pdeathsig, signal.SIGKILL, 0, 0, 0)


def use_sources() -> None:
    """Import ``repro`` from the checkout's ``src/``, or fail clearly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"program sources not found: {SRC / 'repro'} is missing"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise BenchmarkError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def digest_lines(lines: Iterable[str]) -> str:
    """SHA-256 over newline-terminated lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def write_json(path: Path, obj: Any) -> None:
    """Atomic JSON write (tmp + rename)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj), encoding="utf-8")
    os.replace(tmp, path)


def check_digest(key: str, digest: str) -> Optional[str]:
    """Compare ``digest`` with the one stored under ``key``.

    The first run of a (workload, seed, prefix) stores its digest;
    every later run of the same key in this checkout must reproduce
    it.  Returns the stored digest it matched, or None when it was the
    first.  Raises :class:`BenchmarkError` on a mismatch.
    """
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    store_path = RUNS_DIR / "digests.json"
    store: Dict[str, str] = {}
    if store_path.exists():
        store = json.loads(store_path.read_text(encoding="utf-8"))
    stored = store.get(key)
    if stored is not None:
        if stored != digest:
            raise BenchmarkError(
                f"decision digest for {key} changed between repeats: "
                f"{stored[:16]} then {digest[:16]}"
            )
        return stored
    store[key] = digest
    write_json(store_path, store)
    return None


def peak_rss_mib_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB (Linux)."""
    status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM in /proc/{pid}/status")

