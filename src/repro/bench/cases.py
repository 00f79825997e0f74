"""Deterministic benchmark cases for the scheduler's hot paths.

Each case times a hot path ``repeats`` times (fresh solver/RNG state
per repeat so every repeat does identical work) and reports the raw
wall-clock samples *plus* RNG-safe operation counters — SGD iterations
to converge, DDS objective evaluations, trace-span counts.  The
counters are fully determined by the seeds, so they are the quantities
the CI regression gate compares across machines; the walls are for
like-for-like local comparisons.

Wall-clock here uses :func:`time.perf_counter_ns` deliberately —
``repro.bench`` sits outside the determinism-audited packages
(``repro.sim``/``repro.core``/``repro.faults``), so the DET103 lint
rule does not apply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.report import BenchCaseResult, BenchReport

#: Slices per decision-loop repeat; small because each slice runs the
#: full profile -> reconstruct -> search -> reconfigure pipeline.
QUANTUM_SLICES = 3
#: Batch jobs in the solver microbenchmarks (the paper's mix size).
N_BENCH_JOBS = 16


@dataclass(frozen=True)
class BenchCase:
    """A named, self-contained benchmark."""

    name: str
    description: str
    runner: Callable[[int, int], BenchCaseResult]


def _timed_ms(fn: Callable[[], object]) -> float:
    start = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - start) / 1e6


# -- solver microbenchmarks ------------------------------------------------


def _run_sgd(repeats: int, seed: int) -> BenchCaseResult:
    """One PQ reconstruction of the profiled 32-app BIPS matrix."""
    from repro.core.sgd import PQReconstructor, SGDParams
    from repro.experiments.table2_overheads import _profiled_matrix

    matrix, _, _ = _profiled_matrix(n_train=N_BENCH_JOBS)
    walls: List[float] = []
    iterations = 0
    for _ in range(repeats):
        # Fresh reconstructor per repeat: identical SGD trajectory,
        # hence an identical, comparable iteration count.
        reconstructor = PQReconstructor(SGDParams(seed=seed))
        walls.append(_timed_ms(lambda: reconstructor.reconstruct(matrix)))
        if reconstructor.last_diagnostics is not None:
            iterations = reconstructor.last_diagnostics.iterations
    return BenchCaseResult(
        name="sgd.reconstruct",
        description="PQ/SGD reconstruction, 32-app BIPS matrix",
        wall_ms=tuple(walls),
        counters={"sgd_iterations": int(iterations)},
    )


def _run_dds(repeats: int, seed: int) -> BenchCaseResult:
    """One 16-job DDS search over the 108-config joint space."""
    from repro.core.dds import DDSSearch
    from repro.core.matrices import throughput_rows
    from repro.core.objective import SystemObjective
    from repro.sim.coreconfig import N_JOINT_CONFIGS
    from repro.sim.perf import PerformanceModel
    from repro.sim.power import PowerModel
    from repro.workloads.batch import SPEC_APPS, batch_profile

    perf = PerformanceModel()
    power = PowerModel()
    profiles = [batch_profile(n) for n in SPEC_APPS[:N_BENCH_JOBS]]
    objective = SystemObjective(
        bips=throughput_rows(profiles, perf),
        power=np.vstack([power.power_row(p) for p in profiles]),
        max_power=100.0,
        max_ways=32,
    )
    walls: List[float] = []
    evaluations = 0
    for _ in range(repeats):
        searcher = DDSSearch()
        rng = np.random.default_rng(seed)
        result_box = {}

        def search() -> None:
            result_box["result"] = searcher.search(
                objective, n_dims=N_BENCH_JOBS, n_confs=N_JOINT_CONFIGS,
                rng=rng,
            )

        walls.append(_timed_ms(search))
        evaluations = int(result_box["result"].evaluations)
    return BenchCaseResult(
        name="dds.search",
        description="DDS search, 16 jobs x 108 joint configs",
        wall_ms=tuple(walls),
        counters={"dds_evaluations": evaluations},
    )


#: The regime the ``mgk.rows`` case builds: one load bucket, one LC
#: core count, on mix 0's controller.
MGK_BENCH_BUCKET = 0.6
MGK_BENCH_CORES = 16


def _run_mgk_rows(repeats: int, seed: int) -> BenchCaseResult:
    """One cold (service, load bucket, cores) latency-regime build.

    Times ``latency_training_rows`` exactly as the controller calls it
    on a regime it has not seen: every training service (variants
    included) minus the running service, one bucket, one core count.
    ``mgk_configs`` (rows x 108) is the deterministic op counter.
    """
    from repro.core.matrices import latency_training_rows
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix
    from repro.workloads.mixes import paper_mixes

    machine = build_machine_for_mix(paper_mixes()[0], seed=seed)
    controller = CuttleSysPolicy.for_machine(machine, seed=seed).controller
    services = controller.latency_training_services
    exclude = (machine.lc_service.name, MGK_BENCH_BUCKET)
    box: Dict[str, np.ndarray] = {}

    def build() -> None:
        box["rows"], _ = latency_training_rows(
            services, [MGK_BENCH_BUCKET], machine.perf, MGK_BENCH_CORES,
            exclude=exclude,
        )

    walls = [_timed_ms(build) for _ in range(repeats)]
    return BenchCaseResult(
        name="mgk.rows",
        description=(
            f"cold M/G/k latency-regime build, mix 0, load "
            f"{MGK_BENCH_BUCKET}, {MGK_BENCH_CORES} cores"
        ),
        wall_ms=tuple(walls),
        counters={"mgk_configs": int(box["rows"].size)},
    )


#: Quanta the ``controller.ingest`` case replays.
INGEST_QUANTA = 20


def _recorded_ingests(seed: int):
    """Mix 0's ingest calls over INGEST_QUANTA live quanta, in order.

    Returns ``(machine, calls, regimes)``: the machine, the
    ``(method name, argument)`` pairs the live controller received and
    the latency regimes it had built by the end.
    """
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix, run_policy
    from repro.workloads.loadgen import LoadTrace
    from repro.workloads.mixes import paper_mixes

    machine = build_machine_for_mix(paper_mixes()[0], seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed)
    controller = policy.controller
    calls: List[Tuple[str, object]] = []
    for name in ("ingest_profiling", "ingest_measurement"):
        method = getattr(controller, name)

        def record(arg, name=name, method=method):
            calls.append((name, arg))
            return method(arg)

        setattr(controller, name, record)
    run_policy(
        machine, policy, LoadTrace.constant(0.6), n_slices=INGEST_QUANTA
    )
    return machine, calls, list(controller._latency_matrices)


def _ingest_controller(machine, seed: int, regimes):
    """A fresh controller with the recorded latency regimes built, so
    the replay meets them warm, as a live ingest does."""
    from repro.core.runtime import CuttleSysPolicy

    controller = CuttleSysPolicy.for_machine(machine, seed=seed).controller
    for service_idx, bucket, n_cores in regimes:
        controller._latency_matrix(bucket, n_cores, service_idx)
    return controller


def _replay_ingests(controller, calls) -> None:
    for name, arg in calls:
        getattr(controller, name)(arg)


def _ingest_counters(machine, seed: int, regimes, calls) -> Dict[str, int]:
    """Samples screened and known-block statistics built, counted on a
    twin of the timed replay (matrix construction included).  The
    statistics are built once per matrix, never per sample."""
    from repro.core import matrices

    builds = [0]
    build_stats = matrices.known_column_stats

    def counted(known):
        builds[0] += 1
        return build_stats(known)

    matrices.known_column_stats = counted
    try:
        controller = _ingest_controller(machine, seed, regimes)
    finally:
        matrices.known_column_stats = build_stats
    checked = [0]
    sample_ok = controller._sample_ok

    def counted_sample_ok(*args, **kwargs):
        checked[0] += 1
        return sample_ok(*args, **kwargs)

    controller._sample_ok = counted_sample_ok
    _replay_ingests(controller, calls)
    return {"samples_checked": checked[0], "known_stat_builds": builds[0]}


def _run_controller_ingest(repeats: int, seed: int) -> BenchCaseResult:
    """The ingest stage: ``ingest_profiling`` + ``ingest_measurement``.

    Replays the ingest calls of INGEST_QUANTA live mix-0 quanta into a
    fresh controller built outside the timed region.  The replay sees
    no decisions between ingests, so no requested assignment is there
    to diff against; the sample screening, the bulk of the stage, runs
    as live.
    """
    machine, calls, regimes = _recorded_ingests(seed)
    walls: List[float] = []
    for _ in range(repeats):
        controller = _ingest_controller(machine, seed, regimes)
        walls.append(_timed_ms(lambda: _replay_ingests(controller, calls)))
    return BenchCaseResult(
        name="controller.ingest",
        description=(
            f"ingest_profiling + ingest_measurement over {INGEST_QUANTA} "
            "mix-0 quanta"
        ),
        wall_ms=tuple(walls),
        counters=_ingest_counters(machine, seed, regimes, calls),
    )


# -- decision-loop benchmarks ----------------------------------------------


def _decision_loop(seed: int, telemetry) -> None:
    """Run QUANTUM_SLICES full decision quanta on a fresh mix-0 setup."""
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix, run_policy
    from repro.workloads.loadgen import LoadTrace
    from repro.workloads.mixes import paper_mixes

    mix = paper_mixes()[0]
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed)
    run_policy(
        machine, policy, LoadTrace.constant(0.6),
        n_slices=QUANTUM_SLICES, telemetry=telemetry,
    )


def _quantum_counters(seed: int) -> Dict[str, int]:
    """Operation counts of the decision loop, from an instrumented twin.

    Telemetry changes no RNG draws and no decisions, so the span
    arguments of one traced run are exactly the operation counts of
    the untraced timed runs.
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    _decision_loop(seed, telemetry)
    evaluations = 0
    iterations = 0
    for span in telemetry.tracer.spans:
        if span.name == "dds.search":
            evaluations += int(span.args.get("evaluations", 0))
        elif span.name == "sgd.reconstruct":
            iterations += int(span.args.get("iterations", 0))
    return {
        "dds_evaluations": evaluations,
        "sgd_iterations": iterations,
        "trace_spans": len(telemetry.tracer.spans),
    }


def _run_quantum(repeats: int, seed: int) -> BenchCaseResult:
    walls = [
        _timed_ms(lambda: _decision_loop(seed, None))
        for _ in range(repeats)
    ]
    return BenchCaseResult(
        name="quantum.decision",
        description=(
            f"{QUANTUM_SLICES} full decision quanta, mix 0, telemetry off"
        ),
        wall_ms=tuple(walls),
        counters=_quantum_counters(seed),
    )


#: Per-quantum decision budget comfortably above one full quantum's
#: metered cost (~6.5k operations): the deadline layer must never
#: degrade at this level, so ``degradation_rungs`` has baseline 0.
AMPLE_DECISION_BUDGET = 8000


def _budgeted_decision_loop(seed: int, telemetry):
    """The decision loop under an ample per-quantum deadline budget."""
    from repro.core.controller import ControllerConfig
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix, run_policy
    from repro.workloads.loadgen import LoadTrace
    from repro.workloads.mixes import paper_mixes

    mix = paper_mixes()[0]
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=seed,
        config=ControllerConfig(
            seed=seed, decision_budget=AMPLE_DECISION_BUDGET
        ),
    )
    run_policy(
        machine, policy, LoadTrace.constant(0.6),
        n_slices=QUANTUM_SLICES, telemetry=telemetry,
    )
    return policy


def _run_deadline_quantum(repeats: int, seed: int) -> BenchCaseResult:
    """The decision loop with the deadline meter armed at ample budget.

    The counters are the zero-rung regression gate: at ample budget the
    graceful-degradation ladder must never fire, so ``degradation_rungs``
    has baseline 0 and any metering-cost creep that pushes a quantum
    over budget trips the CI counter comparison.  ``budget_total_spent``
    pins the meter's deterministic arithmetic itself.
    """
    from repro.telemetry import Telemetry

    walls = [
        _timed_ms(lambda: _budgeted_decision_loop(seed, None))
        for _ in range(repeats)
    ]
    session = Telemetry()
    policy = _budgeted_decision_loop(seed, session)
    counters = session.metrics.as_dict()["counters"]
    return BenchCaseResult(
        name="deadline.quantum",
        description=(
            f"{QUANTUM_SLICES} decision quanta under an ample "
            f"{AMPLE_DECISION_BUDGET}-op deadline budget"
        ),
        wall_ms=tuple(walls),
        counters={
            "degradation_rungs": int(
                counters.get("controller.degradation.rungs", 0)
            ),
            "budget_total_spent": int(policy.controller.budget.total_spent),
            "budget_quanta": int(policy.controller.budget.quanta),
        },
    )


def _run_telemetry_overhead(repeats: int, seed: int) -> BenchCaseResult:
    from repro.telemetry import Telemetry

    walls = [
        _timed_ms(lambda: _decision_loop(seed, Telemetry()))
        for _ in range(repeats)
    ]
    return BenchCaseResult(
        name="telemetry.overhead",
        description=(
            f"{QUANTUM_SLICES} decision quanta with a live telemetry session"
        ),
        wall_ms=tuple(walls),
        counters={},
    )


def _run_telemetry_disabled(repeats: int, seed: int) -> BenchCaseResult:
    from repro.telemetry import Telemetry

    walls = [
        _timed_ms(lambda: _decision_loop(seed, Telemetry(enabled=False)))
        for _ in range(repeats)
    ]
    return BenchCaseResult(
        name="telemetry.overhead_disabled",
        description=(
            f"{QUANTUM_SLICES} decision quanta with a disabled session "
            "(null tracer + null registry fast path)"
        ),
        wall_ms=tuple(walls),
        counters={},
    )


def _streamed_decision_loop(seed: int):
    """The decision loop with a live emitter bound to a bounded queue.

    Returns ``(emitter, aggregator)`` after draining the queue, so the
    counters can assert both ends of the bus: everything emitted was
    aggregated and nothing was dropped at baseline.
    """
    import queue as queue_mod

    from repro.telemetry import Telemetry
    from repro.telemetry.live import (
        LiveAggregator,
        LiveEmitter,
        install_emitter,
    )

    sink: "queue_mod.Queue" = queue_mod.Queue(maxsize=1024)
    emitter = LiveEmitter(sink, unit_id="bench/stream", worker="bench")
    prior = install_emitter(emitter)
    try:
        _decision_loop(seed, Telemetry())
    finally:
        install_emitter(prior)
    aggregator = LiveAggregator()
    while True:
        try:
            aggregator.ingest_event(sink.get_nowait())
        except queue_mod.Empty:
            break
    return emitter, aggregator


def _run_stream_overhead(repeats: int, seed: int) -> BenchCaseResult:
    """Streaming cost on top of ``telemetry.overhead``.

    The counters are the backpressure gate: ``live_dropped_events``
    has baseline 0, so any drop under the bounded queue at baseline
    load trips the CI counter comparison.
    """
    walls = [
        _timed_ms(lambda: _streamed_decision_loop(seed))
        for _ in range(repeats)
    ]
    emitter, aggregator = _streamed_decision_loop(seed)
    return BenchCaseResult(
        name="telemetry.stream_overhead",
        description=(
            f"{QUANTUM_SLICES} decision quanta streaming live quantum "
            "events into a bounded in-process queue"
        ),
        wall_ms=tuple(walls),
        counters={
            "live_events": int(emitter.emitted),
            "live_dropped_events": int(emitter.dropped),
            "live_quanta_aggregated": int(aggregator.quanta),
            "live_qos_violations": int(aggregator.qos_violations),
        },
    )


def _profiled_decision_loop(seed: int):
    """The decision loop with a live session, then the profile build.

    Returns ``(telemetry, profile root)`` so the counters can pin both
    the flight recorder (every quantum produced a provenance record,
    none dropped) and the profiler's deterministic operation totals.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.profiler import profile_telemetry

    telemetry = Telemetry()
    _decision_loop(seed, telemetry)
    return telemetry, profile_telemetry(telemetry)


def _run_profiler_overhead(repeats: int, seed: int) -> BenchCaseResult:
    """Flight-recorder + profiler cost on top of ``telemetry.overhead``.

    The counters are the observability gate: ``provenance_records``
    must equal the quantum count (the recorder never misses a
    decision) and ``provenance_dropped_records`` has baseline 0, so a
    recorder bound regression trips the CI counter comparison.  The
    ``profile_ops_total`` / ``profile_nodes`` pair pins the profiler's
    deterministic aggregation itself.
    """
    from repro.telemetry.profiler import iter_nodes, phase_summary

    walls = [
        _timed_ms(lambda: _profiled_decision_loop(seed))
        for _ in range(repeats)
    ]
    session, root = _profiled_decision_loop(seed)
    counters = session.metrics.as_dict()["counters"]
    ops_total = sum(
        sum(entry["ops"].values()) for entry in phase_summary(root)
    )
    return BenchCaseResult(
        name="profiler.overhead",
        description=(
            f"{QUANTUM_SLICES} decision quanta with provenance "
            "recording plus the profile build"
        ),
        wall_ms=tuple(walls),
        counters={
            "provenance_records": int(
                counters.get("provenance.records", 0)
            ),
            "provenance_dropped_records": int(
                counters.get("provenance.dropped", 0)
            ),
            "profile_ops_total": int(ops_total),
            "profile_nodes": sum(1 for _ in iter_nodes(root)),
        },
    )


# -- fleet benchmarks ------------------------------------------------------

#: Slices per cluster-study arm in the fleet cases; enough work per
#: unit that worker start-up cost amortises on multi-core hosts.
FLEET_SLICES = 4


def _cluster_cells(seed: int, jobs: int, telemetry=None):
    from repro.experiments.cluster_study import run_cluster_study

    return run_cluster_study(
        n_slices=FLEET_SLICES, seed=seed, jobs=jobs, telemetry=telemetry,
    )


def _run_fleet_pool(repeats: int, seed: int) -> BenchCaseResult:
    """The 2-scheme cluster study sharded across 2 worker processes.

    Walls show the parallel speedup on multi-core hosts (compare with
    ``fleet.serial``); the counters are the RNG-safe determinism gate:
    ``fleet_retries`` and ``fleet_mismatched_units`` have baseline 0,
    so any worker death or serial-vs-parallel result divergence trips
    the CI counter comparison.
    """
    from repro.telemetry import Telemetry

    walls = [
        _timed_ms(lambda: _cluster_cells(seed, jobs=2))
        for _ in range(repeats)
    ]
    session = Telemetry()
    parallel = _cluster_cells(seed, jobs=2, telemetry=session)
    serial = _cluster_cells(seed, jobs=1)
    mismatched = sum(
        1 for scheme in serial if parallel.get(scheme) != serial[scheme]
    )
    return BenchCaseResult(
        name="fleet.pool",
        description=(
            f"cluster study ({FLEET_SLICES} slices) sharded over "
            "2 worker processes"
        ),
        wall_ms=tuple(walls),
        counters={
            "fleet_units": int(
                session.metrics.counter("fleet.units_total").value
            ),
            "fleet_retries": int(
                session.metrics.counter("fleet.retries").value
            ),
            "fleet_mismatched_units": int(mismatched),
            "cluster_qos_violations": int(
                sum(outcome.qos_violations for outcome in serial.values())
            ),
        },
    )


def _run_fleet_serial(repeats: int, seed: int) -> BenchCaseResult:
    """The same cluster study run in-process; the speedup denominator."""
    walls = [
        _timed_ms(lambda: _cluster_cells(seed, jobs=1))
        for _ in range(repeats)
    ]
    return BenchCaseResult(
        name="fleet.serial",
        description=(
            f"cluster study ({FLEET_SLICES} slices) in-process, --jobs 1"
        ),
        wall_ms=tuple(walls),
        counters={},
    )


BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        "sgd.reconstruct",
        "PQ/SGD reconstruction, 32-app BIPS matrix",
        _run_sgd,
    ),
    BenchCase(
        "dds.search",
        "DDS search, 16 jobs x 108 joint configs",
        _run_dds,
    ),
    BenchCase(
        "mgk.rows",
        "cold M/G/k latency-regime build (training rows x 108 configs)",
        _run_mgk_rows,
    ),
    BenchCase(
        "controller.ingest",
        "ingest_profiling + ingest_measurement over replayed quanta",
        _run_controller_ingest,
    ),
    BenchCase(
        "quantum.decision",
        "full decision quanta, telemetry off",
        _run_quantum,
    ),
    BenchCase(
        "deadline.quantum",
        "decision quanta under an ample deadline budget (zero-rung gate)",
        _run_deadline_quantum,
    ),
    BenchCase(
        "telemetry.overhead",
        "decision quanta with a live telemetry session",
        _run_telemetry_overhead,
    ),
    BenchCase(
        "telemetry.overhead_disabled",
        "decision quanta with a disabled telemetry session",
        _run_telemetry_disabled,
    ),
    BenchCase(
        "telemetry.stream_overhead",
        "decision quanta streaming live events into a bounded queue",
        _run_stream_overhead,
    ),
    BenchCase(
        "profiler.overhead",
        "decision quanta with provenance recording plus the profile build",
        _run_profiler_overhead,
    ),
    BenchCase(
        "fleet.pool",
        "cluster study sharded over 2 worker processes",
        _run_fleet_pool,
    ),
    BenchCase(
        "fleet.serial",
        "cluster study in-process (speedup denominator)",
        _run_fleet_serial,
    ),
)


def case_names() -> Tuple[str, ...]:
    return tuple(case.name for case in BENCH_CASES)


def run_bench(
    repeats: int = 5,
    seed: int = 7,
    only: Optional[Sequence[str]] = None,
) -> BenchReport:
    """Run the (selected) benchmark cases and assemble a report."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if only is not None:
        unknown = sorted(set(only) - set(case_names()))
        if unknown:
            raise ValueError(
                f"unknown bench case(s): {', '.join(unknown)}; "
                f"known: {', '.join(case_names())}"
            )
    cases: Dict[str, BenchCaseResult] = {}
    for case in BENCH_CASES:
        if only is not None and case.name not in only:
            continue
        cases[case.name] = case.runner(repeats, seed)
    return BenchReport(seed=seed, repeats=repeats, cases=cases)
