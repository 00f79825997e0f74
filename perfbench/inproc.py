"""The in-process workloads, ``steady`` and ``diurnal``.

Runs in a child process of ``run.py`` so that the peak resident set it
reports is the decision loop's alone::

    python3 perfbench/inproc.py --workload steady --seed 1 --seconds 15 \
        --trace 0 --out result.json [--spans spans.json]

The loop is driven closed-loop, one ``QuantumStepper.step()`` at a
time, with telemetry off.  Between quanta the loop answers an
open-loop poller: a status query (the same counters the daemon's
``status`` op reports) falls due every ``CONTROL_PERIOD_S`` seconds of
wall time and is timed from its due time, so a long quantum shows as a
late answer, as a control request waits out the tick in progress on
the daemon.  The result file carries raw samples; ``run.py`` turns them
into metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import (
    CONTROL_PERIOD_S,
    BenchmarkError,
    HostSpeed,
    digest_lines,
    median,
    pin_threads,
    scale,
    timed_quanta,
    use_sources,
    write_json,
)

POWER_CAP = 0.7
#: Times the machine + policy are built in the set-up phase; the
#: median is ``setup_s``.
SETUP_REPEATS = 5

STEADY_MIX = 0
STEADY_LOAD = 0.6
#: Typical warm quanta per second of wall time (sizes a run's work).
STEADY_PER_S = 14.0
#: Quanta whose decisions are digested and whose simulated outcomes
#: give the QoS/power/throughput metrics (fixed, so they repeat).
STEADY_PREFIX = 60
#: Warm-up ends after this many consecutive quanta build no regime.
WARM_QUIET = 10
MAX_WARMUP = 200

#: One diurnal episode: a fresh machine and policy, two full periods
#: (60 quanta) of a 3 s sinusoid.  Most new regimes come in the first
#: period, so about two fifths of the quanta are cold: the p90 lands
#: among them and the p50 among the warm ones, not on the boundary
#: between the two (with one period half were cold, and the p50 swung
#: by 50 % across seeds).
DIURNAL_QUANTA = 60
DIURNAL_PER_S = 11.0
DIURNAL_LOW, DIURNAL_HIGH, DIURNAL_PERIOD_S = 0.2, 0.9, 3.0


class TimedLoop:
    """Times quanta; serves the open-loop status poller between them.

    After each quantum the poller answers every status request that
    has fallen due, then the host-speed kernel is sampled, so each
    quantum has a kernel sample on either side of it.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.start = time.perf_counter()
        self.next_due = self.start
        self.quantum_ms: List[float] = []
        self.calibration_ms: List[float] = [speed.sample()]
        self.control_ms: List[float] = []
        self.control_lag_ms: List[float] = []
        #: Index of the quantum each control request waited behind.
        self.control_quantum: List[int] = []
        self.last_answer: Any = None

    def step(self, stepper: Any) -> None:
        t0 = time.perf_counter()
        stepper.step()
        self.quantum_ms.append((time.perf_counter() - t0) * 1e3)
        run = stepper.run
        while self.next_due <= time.perf_counter():
            begin = time.perf_counter()
            self.last_answer = (
                run.n_slices, run.qos_violations(), run.power_violations(),
                run.degraded_quanta,
            )
            done = time.perf_counter()
            self.control_lag_ms.append((begin - self.next_due) * 1e3)
            self.control_ms.append((done - self.next_due) * 1e3)
            self.control_quantum.append(len(self.quantum_ms) - 1)
            self.next_due += CONTROL_PERIOD_S
        self.calibration_ms.append(self.speed.sample())

    def samples(self) -> Dict[str, Any]:
        return {
            "quantum_ms": self.quantum_ms,
            "calibration_ms": self.calibration_ms,
            "control_ms": self.control_ms,
            "control_lag_ms": self.control_lag_ms,
            "control_quantum": self.control_quantum,
        }


def build(mix: Any, seed: int, speed: HostSpeed) -> Any:
    """Machine + policy for ``mix``: (machine, policy, reference s)."""
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix

    before = speed.sample()
    start = time.perf_counter()
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed)
    wall = time.perf_counter() - start
    return machine, policy, wall * scale(before, speed.sample())


def assignment_lines(measurements: Sequence[Any]) -> List[str]:
    from repro.sim.machine import assignment_state

    return [
        json.dumps(assignment_state(m.assignment), sort_keys=True)
        for m in measurements
    ]


def check_measurements(measurements: Sequence[Any]) -> None:
    """The simulator's outputs must be finite and physical."""
    for i, m in enumerate(measurements):
        if not (math.isfinite(m.lc_p99) and math.isfinite(m.total_power)):
            raise BenchmarkError(f"quantum {i}: non-finite measurement")
        if m.total_power <= 0 or (m.batch_bips < 0).any():
            raise BenchmarkError(f"quantum {i}: negative power or BIPS")


def outcome(runs: Sequence[Any]) -> Dict[str, float]:
    """Simulated QoS/power/throughput over whole policy runs."""
    quanta = sum(run.n_slices for run in runs)
    qos = sum(run.qos_violations() for run in runs)
    power = sum(run.power_violations() for run in runs)
    gmean = [g for run in runs for g in run.gmean_throughput_series()]
    return {
        "qos_met_ratio": 1.0 - qos / quanta,
        "power_met_ratio": 1.0 - power / quanta,
        "batch_gmean_bips": sum(gmean) / len(gmean),
    }


def prefix_run(run: Any, n: int) -> Any:
    return dataclasses.replace(
        run, measurements=run.measurements[:n], loads=run.loads[:n],
        budgets=run.budgets[:n],
    )


def run_steady(seed: int, seconds: float, regime_builds: List[int],
               speed: HostSpeed) -> Dict[str, Any]:
    from repro.experiments.harness import QuantumStepper
    from repro.workloads.loadgen import LoadTrace
    from repro.workloads.mixes import paper_mixes

    mix = paper_mixes()[STEADY_MIX]
    builds = [build(mix, seed, speed) for _ in range(SETUP_REPEATS)]
    machine, policy, _ = builds[-1]
    stepper = QuantumStepper(
        machine, policy, LoadTrace.constant(STEADY_LOAD),
        power_cap_fraction=POWER_CAP, n_slices=10**6,
    )
    quiet = 0
    while quiet < WARM_QUIET:
        before = regime_builds[0]
        stepper.step()
        quiet = quiet + 1 if regime_builds[0] == before else 0
        if stepper.next_slice > MAX_WARMUP:
            raise BenchmarkError(
                f"regimes still being built after {MAX_WARMUP} quanta"
            )
    warmup = stepper.next_slice
    loop = TimedLoop(speed)
    for _ in range(max(timed_quanta(seconds, STEADY_PER_S),
                       STEADY_PREFIX - warmup)):
        loop.step(stepper)
    run = stepper.run
    check_measurements(run.measurements)
    return {
        "setup_s": median(b[2] for b in builds),
        "warmup_quanta": warmup,
        **loop.samples(),
        "digest": digest_lines(
            assignment_lines(run.measurements[:STEADY_PREFIX])
        ),
        "digest_quanta": STEADY_PREFIX,
        "attempted": run.n_slices,
        "failed": run.degraded_quanta,
        "episode_regime_builds": [],
        **outcome([prefix_run(run, STEADY_PREFIX)]),
    }


def diurnal_mixes() -> List[Any]:
    """The first paper mix of each LC service, in service order."""
    from repro.workloads.latency_critical import LC_SERVICE_NAMES
    from repro.workloads.mixes import paper_mixes

    mixes = paper_mixes()
    return [
        next(m for m in mixes if m.lc_name == name)
        for name in LC_SERVICE_NAMES
    ]


def run_diurnal(seed: int, seconds: float, regime_builds: List[int],
                speed: HostSpeed) -> Dict[str, Any]:
    from repro.experiments.harness import QuantumStepper
    from repro.workloads.loadgen import LoadTrace

    mixes = diurnal_mixes()
    trace = LoadTrace.diurnal(
        DIURNAL_LOW, DIURNAL_HIGH, period=DIURNAL_PERIOD_S
    )
    setups = []
    for _ in range(SETUP_REPEATS):
        first_round = [build(mix, seed, speed) for mix in mixes]
        setups.append(sum(b[2] for b in first_round))
    episode_builds: List[int] = []
    first_runs: List[Any] = []
    attempted = failed = 0
    loop = TimedLoop(speed)
    # Round 0 is one episode per service; further episodes, on other
    # seeds so that none repeats another exactly, make up the budget.
    episodes = max(
        len(mixes),
        math.ceil(timed_quanta(seconds, DIURNAL_PER_S) / DIURNAL_QUANTA),
    )
    for e in range(episodes):
        round_index, k = divmod(e, len(mixes))
        if round_index == 0:
            machine, policy, _ = first_round[k]
        else:
            machine, policy, _ = build(
                mixes[k], seed + 1000 * round_index, speed
            )
        stepper = QuantumStepper(
            machine, policy, trace, power_cap_fraction=POWER_CAP,
            n_slices=DIURNAL_QUANTA,
        )
        before = regime_builds[0]
        while not stepper.done:
            loop.step(stepper)
        episode_builds.append(regime_builds[0] - before)
        attempted += stepper.run.n_slices
        failed += stepper.run.degraded_quanta
        check_measurements(stepper.run.measurements)
        if round_index == 0:
            first_runs.append(stepper.run)
    lines = [
        line for run in first_runs
        for line in assignment_lines(run.measurements)
    ]
    return {
        "setup_s": median(setups),
        "warmup_quanta": 0,
        **loop.samples(),
        "digest": digest_lines(lines),
        "digest_quanta": len(lines),
        "attempted": attempted,
        "failed": failed,
        "episode_regime_builds": episode_builds[: len(mixes)],
        **outcome(first_runs),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("steady", "diurnal"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    pin_threads()
    use_sources()
    from layers import SpanRecorder, count_calls, install

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
    import repro.core.controller as controller

    # Counting (not timing) the cold-regime builds decides when the
    # steady warm-up is over and proves each diurnal episode met some.
    regime_builds = count_calls(controller, "latency_training_rows")
    workload = run_steady if args.workload == "steady" else run_diurnal
    result = workload(args.seed, args.seconds, regime_builds, HostSpeed())
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if recorder is not None:
        if args.spans is None:
            raise BenchmarkError("--trace 1 needs --spans")
        recorder.dump(Path(args.spans))
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
