"""Fig. 5(a)/(b) — SGD reconstruction accuracy, isolation and colocation.

*Isolation* (Fig. 5a): test applications are measured noise-free on the
two profiling configurations; SGD infers the remaining 106 entries, and
errors are compared against the analytical ground truth.  The paper
reports 25th/75th percentiles within 10 % and 5th/95th within 20 %.

*Colocation* (Fig. 5b): observations come from the machine simulator,
adding profiling noise and phase drift — the runtime error sources of
§VIII-B.  Percentile spreads widen relative to isolation, with the
median still near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.matrices import (
    ObservedMatrix,
    latency_row,
    latency_training_rows,
    power_rows,
    throughput_rows,
)
from repro.core.sgd import PQReconstructor, SGDParams
from repro.experiments.reporting import (
    format_table,
    percentile_summary,
    relative_error_percent,
)
from repro.sim.coreconfig import CoreConfig, JointConfig
from repro.sim.machine import Machine, MachineParams
from repro.sim.perf import PerformanceModel
from repro.sim.power import PowerModel
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import make_services, service_variants

#: The two profiling configurations (widest/narrowest, one LLC way).
HI_JOINT = JointConfig(CoreConfig.widest(), 1.0)
LO_JOINT = JointConfig(CoreConfig.narrowest(), 1.0)


@dataclass(frozen=True)
class AccuracyResult:
    """Percentile error summaries per metric (percent, signed).

    ``tail_latency`` errors are computed over the QoS-relevant
    configurations (true p99 within 3x the QoS target); for
    deep-in-saturation configurations "exact latency prediction is less
    critical, as long as the prediction shows that QoS is violated"
    (§VIII-B) — that is measured by ``latency_qos_classification``, the
    fraction of configurations whose predicted QoS verdict (meets /
    violates) matches the truth.
    """

    throughput: Dict[str, float]
    power: Dict[str, float]
    tail_latency: Dict[str, float]
    latency_qos_classification: float = 1.0

    def as_rows(self):
        """Rows for text rendering."""
        out = []
        for name, summary in (
            ("throughput", self.throughput),
            ("tail latency", self.tail_latency),
            ("power", self.power),
        ):
            out.append(
                (
                    name,
                    f"{summary['p5']:+.1f}",
                    f"{summary['p25']:+.1f}",
                    f"{summary['median']:+.1f}",
                    f"{summary['p75']:+.1f}",
                    f"{summary['p95']:+.1f}",
                )
            )
        return out


def _sparse_matrix(train_rows: np.ndarray, test_rows: np.ndarray,
                   observe: Sequence[int]) -> ObservedMatrix:
    matrix = ObservedMatrix(
        train_rows.shape[0] + test_rows.shape[0], known=train_rows
    )
    for t in range(test_rows.shape[0]):
        for col in observe:
            matrix.observe(train_rows.shape[0] + t, col, test_rows[t, col])
    return matrix


def _batch_errors(
    builder, perf_or_power, reconstructor: PQReconstructor
) -> np.ndarray:
    train_names, test_names = train_test_split()
    train = builder([batch_profile(n) for n in train_names], perf_or_power)
    test = builder([batch_profile(n) for n in test_names], perf_or_power)
    matrix = _sparse_matrix(train, test, [HI_JOINT.index, LO_JOINT.index])
    full = reconstructor.reconstruct(matrix)
    predictions = full[train.shape[0]:]
    return relative_error_percent(predictions, test)


#: Latency errors are reported on configurations whose true p99 is
#: within this multiple of QoS; beyond it only the violation verdict
#: matters (§VIII-B).
QOS_RELEVANCE_FACTOR = 3.0


def _latency_errors(
    perf: PerformanceModel,
    reconstructor: PQReconstructor,
    load: float = 0.8,
    n_cores: int = 16,
    variants_per_service: int = 3,
) -> tuple:
    """Leave-one-service-out latency errors + QoS-verdict accuracy."""
    services = make_services(perf)
    errors = []
    verdicts_right = 0
    verdicts_total = 0
    for name, service in services.items():
        train = [s for other, s in services.items() if other != name]
        for base in services:
            train.extend(
                service_variants(base, variants_per_service, seed=1, perf=perf)
            )
        rows, _ = latency_training_rows(train, [load], perf, n_cores)
        truth = latency_row(service, perf, load, n_cores)
        matrix = ObservedMatrix(rows.shape[0] + 1, known=rows)
        # The latency row starts from a single steady-state sample plus
        # the widest profiling configuration (paper: m*p - 1 initially).
        wide = JointConfig(CoreConfig.widest(), 4.0).index
        matrix.observe(rows.shape[0], wide, truth[wide])
        mid = JointConfig(CoreConfig(4, 2, 4), 2.0).index
        matrix.observe(rows.shape[0], mid, truth[mid])
        full = reconstructor.reconstruct(matrix)
        predicted = full[-1]
        qos = service.qos_latency_s
        relevant = truth <= QOS_RELEVANCE_FACTOR * qos
        errors.append(
            relative_error_percent(predicted[relevant], truth[relevant])
        )
        verdicts_right += int(
            np.sum((predicted <= qos) == (truth <= qos))
        )
        verdicts_total += truth.size
    return np.concatenate(errors), verdicts_right / verdicts_total


def run_fig5a(
    params: SGDParams = SGDParams(), perf: Optional[PerformanceModel] = None
) -> AccuracyResult:
    """Isolation accuracy: noise-free samples, analytical ground truth."""
    perf = perf if perf is not None else PerformanceModel()
    power = PowerModel()
    reconstructor = PQReconstructor(params)
    throughput = _batch_errors(throughput_rows, perf, reconstructor)
    power_err = _batch_errors(power_rows, power, reconstructor)
    latency, classification = _latency_errors(perf, reconstructor)
    return AccuracyResult(
        throughput=percentile_summary(throughput),
        power=percentile_summary(power_err),
        tail_latency=percentile_summary(latency),
        latency_qos_classification=classification,
    )


def run_fig5b(
    params: SGDParams = SGDParams(),
    seed: int = 3,
    machine_params: MachineParams = MachineParams(),
) -> AccuracyResult:
    """Colocation accuracy: noisy machine samples, phase drift included."""
    _, test_names = train_test_split()
    train_names, _ = train_test_split()
    services = make_services()
    machine = Machine(
        lc_service=services["xapian"],
        batch_profiles=[batch_profile(n) for n in test_names],
        params=machine_params,
        seed=seed,
    )
    # Let phases drift for a few slices before sampling.
    for _ in range(3):
        machine._advance_phases()
    sample = machine.profile(load=0.8)

    reconstructor = PQReconstructor(params)
    perf = machine.perf
    power = machine.power
    train_profiles = [batch_profile(n) for n in train_names]
    results = {}
    for label, train_rows, observed_hi, observed_lo, truth_fn in (
        (
            "throughput",
            throughput_rows(train_profiles, perf),
            sample.batch_bips_hi,
            sample.batch_bips_lo,
            lambda j, joint: machine.true_batch_bips(j, joint),
        ),
        (
            "power",
            power_rows(train_profiles, power),
            sample.batch_power_hi,
            sample.batch_power_lo,
            lambda j, joint: machine.true_batch_power(j, joint.core),
        ),
    ):
        n_test = len(test_names)
        matrix = ObservedMatrix(
            train_rows.shape[0] + n_test, known=train_rows
        )
        for t in range(n_test):
            matrix.observe(train_rows.shape[0] + t, HI_JOINT.index, observed_hi[t])
            matrix.observe(train_rows.shape[0] + t, LO_JOINT.index, observed_lo[t])
        full = reconstructor.reconstruct(matrix)
        truth = np.empty((n_test, matrix.n_cols))
        for t in range(n_test):
            for c in range(matrix.n_cols):
                truth[t, c] = truth_fn(t, JointConfig.from_index(c))
        results[label] = relative_error_percent(
            full[train_rows.shape[0]:], truth
        )

    # Latency under colocation: one noisy steady-state measurement.
    rng = np.random.default_rng(seed)
    latency_errors = []
    verdicts_right = 0
    verdicts_total = 0
    for name, service in services.items():
        train = [s for other, s in services.items() if other != name]
        for base in services:
            train.extend(service_variants(base, 3, seed=1, perf=perf))
        rows, _ = latency_training_rows(train, [0.8], perf, 16)
        truth = latency_row(service, perf, 0.8, 16)
        matrix = ObservedMatrix(rows.shape[0] + 1, known=rows)
        noise = machine_params.slice_noise
        for joint in (JointConfig(CoreConfig.widest(), 4.0),
                      JointConfig(CoreConfig(4, 2, 4), 2.0)):
            noisy = truth[joint.index] * float(
                np.exp(rng.normal(0.0, noise * 2))
            )
            matrix.observe(rows.shape[0], joint.index, noisy)
        full = reconstructor.reconstruct(matrix)
        predicted = full[-1]
        qos = service.qos_latency_s
        relevant = truth <= QOS_RELEVANCE_FACTOR * qos
        latency_errors.append(
            relative_error_percent(predicted[relevant], truth[relevant])
        )
        verdicts_right += int(np.sum((predicted <= qos) == (truth <= qos)))
        verdicts_total += truth.size

    return AccuracyResult(
        throughput=percentile_summary(results["throughput"]),
        power=percentile_summary(results["power"]),
        tail_latency=percentile_summary(np.concatenate(latency_errors)),
        latency_qos_classification=verdicts_right / verdicts_total,
    )


def render_fig5(isolation: AccuracyResult, colocation: AccuracyResult) -> str:
    """Text rendering of both panels."""
    headers = ["metric", "p5%", "p25%", "median%", "p75%", "p95%"]
    return (
        "Fig. 5a — reconstruction error, isolation\n"
        + format_table(headers, isolation.as_rows())
        + "\n(latency errors over QoS-relevant configs; QoS-verdict "
        + f"accuracy {isolation.latency_qos_classification:.1%})"
        + "\n\nFig. 5b — reconstruction error, colocation (noise + phases)\n"
        + format_table(headers, colocation.as_rows())
        + "\n(QoS-verdict accuracy "
        + f"{colocation.latency_qos_classification:.1%})"
    )
