"""The metrics reference: one documented row per exported metric name.

``METRICS_REFERENCE`` is the single source of truth behind the
"Metrics reference" table in docs/observability.md — the table in the
docs is generated by :func:`render_metrics_reference` and a test
asserts the committed file contains exactly that output, so the docs
cannot drift from this registry.

The registry is in turn pinned to the code by lint rule TEL404
(:mod:`repro.analysis.rules_telemetry`): every literal metric name
registered anywhere in the live tree (``metrics.counter("x.y")`` and
friends) must have a row here, so adding a metric without documenting
it fails ``python -m repro lint`` and the tier-1 suite.

Dynamic metric families (f-string names such as
``faults.injected.{kind}``) cannot be checked statically; they get
explicit family rows whose name carries the ``{placeholder}`` so the
docs still enumerate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = [
    "METRICS_REFERENCE",
    "MetricDoc",
    "documented_names",
    "render_metrics_reference",
]


@dataclass(frozen=True)
class MetricDoc:
    """One row of the metrics reference table."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    module: str
    description: str


METRICS_REFERENCE: Tuple[MetricDoc, ...] = (
    # --- accuracy auditor -------------------------------------------------
    MetricDoc(
        "accuracy.audited_quanta", "counter", "quanta",
        "repro.telemetry.accuracy",
        "Quanta whose predictions the accuracy auditor scored.",
    ),
    MetricDoc(
        "accuracy.drift.flags", "counter", "flags",
        "repro.telemetry.accuracy",
        "Rolling-window drift detections raised by the auditor.",
    ),
    MetricDoc(
        "accuracy.unaudited_quanta", "counter", "quanta",
        "repro.telemetry.accuracy",
        "Quanta skipped by the auditor's sampling schedule.",
    ),
    MetricDoc(
        "accuracy.lc_p99_err_pct", "histogram", "percent",
        "repro.telemetry.accuracy",
        "Absolute LC p99 latency prediction error per audited quantum.",
    ),
    MetricDoc(
        "accuracy.lc_p99_signed_err_pct", "histogram", "percent",
        "repro.telemetry.accuracy",
        "Signed LC p99 latency prediction error (bias direction).",
    ),
    MetricDoc(
        "accuracy.qos_attrib.{kind}", "counter", "events",
        "repro.telemetry.accuracy",
        "QoS violations attributed by cause (dynamic family; kinds "
        "are attribution labels such as mispredict/load).",
    ),
    # --- cluster / fleet --------------------------------------------------
    MetricDoc(
        "cluster.qos_violations", "counter", "events",
        "repro.experiments.cluster_study",
        "QoS violations summed across the simulated cluster grid.",
    ),
    MetricDoc(
        "fleet.jobs", "gauge", "processes",
        "repro.fleet.runner",
        "Worker processes the fleet run was configured with.",
    ),
    MetricDoc(
        "fleet.retries", "counter", "retries",
        "repro.fleet.runner",
        "Unit resubmissions after worker death.",
    ),
    MetricDoc(
        "fleet.serial_fallbacks", "counter", "events",
        "repro.fleet.runner",
        "Degradations to in-process serial execution.",
    ),
    MetricDoc(
        "fleet.units_executed", "counter", "units",
        "repro.fleet.runner",
        "Work units actually executed this run.",
    ),
    MetricDoc(
        "fleet.units_resumed", "counter", "units",
        "repro.fleet.runner",
        "Work units restored from a checkpoint instead of executed.",
    ),
    MetricDoc(
        "fleet.units_total", "counter", "units",
        "repro.fleet.runner",
        "Work units in the fleet (executed + resumed).",
    ),
    MetricDoc(
        "live.dropped_events", "counter", "events",
        "repro.fleet.runner",
        "Live telemetry events dropped on event-bus backpressure.",
    ),
    # --- controller (repro.core.controller, via Telemetry.count) ---------
    MetricDoc(
        "controller.core_reclamations", "counter", "events",
        "repro.core.controller",
        "Cores reclaimed from LC services for the batch partition.",
    ),
    MetricDoc(
        "controller.core_yields", "counter", "events",
        "repro.core.controller",
        "Cores yielded back to LC services under load.",
    ),
    MetricDoc(
        "controller.emergency_core_off", "counter", "cores",
        "repro.core.controller",
        "Cores disabled by the power-cap emergency fallback.",
    ),
    MetricDoc(
        "controller.jobs_added", "counter", "jobs",
        "repro.core.controller",
        "Batch jobs bound to vacant slots between quanta.",
    ),
    MetricDoc(
        "controller.jobs_removed", "counter", "jobs",
        "repro.core.controller",
        "Batch jobs vacated from their slots between quanta.",
    ),
    MetricDoc(
        "controller.degradation.rungs", "counter", "events",
        "repro.core.controller",
        "Total degradation-ladder rung transitions (all rungs).",
    ),
    MetricDoc(
        "controller.degradation.{rung}", "counter", "events",
        "repro.core.controller",
        "Per-rung degradation transitions (dynamic family; rungs are "
        "reduced_dds/last_good/fair_share).",
    ),
    MetricDoc(
        "provenance.records", "counter", "records",
        "repro.core.controller",
        "Decision-provenance records emitted by the flight recorder.",
    ),
    MetricDoc(
        "provenance.dropped", "counter", "records",
        "repro.core.controller",
        "Provenance records dropped by the recorder's ring bound.",
    ),
    # --- fault detection/recovery (controller safety net) -----------------
    MetricDoc(
        "faults.detected.bad_sample", "counter", "events",
        "repro.core.controller",
        "Profiling samples rejected by the sanity gate.",
    ),
    MetricDoc(
        "faults.detected.stuck_sensor", "counter", "events",
        "repro.core.controller",
        "Power-sensor stuck-value detections.",
    ),
    MetricDoc(
        "faults.detected.reconfig_failed", "counter", "events",
        "repro.core.controller",
        "Reconfigurations that did not take effect on the machine.",
    ),
    MetricDoc(
        "faults.detected.core_quarantined", "counter", "cores",
        "repro.core.controller",
        "Cores quarantined after repeated reconfiguration failures.",
    ),
    MetricDoc(
        "faults.detected.safe_mode_entered", "counter", "events",
        "repro.core.controller",
        "Transitions into the fair-share safe mode.",
    ),
    MetricDoc(
        "faults.recovered.quarantine_released", "counter", "cores",
        "repro.core.controller",
        "Quarantined cores released after their cool-down.",
    ),
    MetricDoc(
        "faults.recovered.safe_mode_exited", "counter", "events",
        "repro.core.controller",
        "Transitions out of safe mode back to normal decisions.",
    ),
    MetricDoc(
        "faults.recovered.degraded_quantum", "counter", "quanta",
        "repro.experiments.harness",
        "Quanta the harness completed on a last-known-good fallback "
        "after the policy raised.",
    ),
    MetricDoc(
        "faults.injected.{kind}", "counter", "events",
        "repro.faults.injector",
        "Injected faults by kind (dynamic family; kinds are the "
        "FaultSpec names, e.g. batch_crash/stuck_power).",
    ),
    # --- experiment harness ----------------------------------------------
    MetricDoc(
        "harness.degraded_quanta", "counter", "quanta",
        "repro.experiments.harness",
        "Quanta decided on a degradation-ladder rung (not full DDS).",
    ),
    MetricDoc(
        "harness.job_churn", "counter", "events",
        "repro.experiments.harness",
        "Batch job arrivals and departures.",
    ),
    MetricDoc(
        "harness.power_violations", "counter", "quanta",
        "repro.experiments.harness",
        "Quanta whose measured chip power exceeded the budget x 1.02 "
        "(rule: `PolicyRun.violated`).",
    ),
    MetricDoc(
        "harness.qos_violations", "counter", "quanta",
        "repro.experiments.harness",
        "Quanta where the primary LC service (while holding at least "
        "one core) or any extra service exceeded its p99 QoS target "
        "(rule: `PolicyRun.violated`).",
    ),
    MetricDoc(
        "harness.reconfigurations", "counter", "events",
        "repro.experiments.harness",
        "Quanta whose chosen assignment differed from the previous one.",
    ),
    MetricDoc(
        "harness.lc_load", "gauge", "fraction",
        "repro.experiments.harness",
        "Current LC load level from the load trace (of peak).",
    ),
    MetricDoc(
        "harness.power_w", "gauge", "watts",
        "repro.experiments.harness",
        "Measured chip power for the last quantum.",
    ),
    MetricDoc(
        "slice.lc_p99_ms", "histogram", "milliseconds",
        "repro.experiments.harness",
        "Per-quantum measured LC p99 latency.",
    ),
    # --- prediction-error scoring (repro.telemetry.metrics) --------------
    MetricDoc(
        "prediction_error.bips_pct", "histogram", "percent",
        "repro.telemetry.metrics",
        "Absolute batch-throughput (BIPS) prediction error.",
    ),
    MetricDoc(
        "prediction_error.bips_signed_pct", "histogram", "percent",
        "repro.telemetry.metrics",
        "Signed BIPS prediction error (bias direction).",
    ),
    MetricDoc(
        "prediction_error.p99_pct", "histogram", "percent",
        "repro.telemetry.metrics",
        "Absolute LC p99 latency prediction error.",
    ),
    MetricDoc(
        "prediction_error.p99_signed_pct", "histogram", "percent",
        "repro.telemetry.metrics",
        "Signed LC p99 latency prediction error.",
    ),
    MetricDoc(
        "prediction_error.power_pct", "histogram", "percent",
        "repro.telemetry.metrics",
        "Absolute chip-power prediction error.",
    ),
    MetricDoc(
        "prediction_error.power_signed_pct", "histogram", "percent",
        "repro.telemetry.metrics",
        "Signed chip-power prediction error.",
    ),
    # --- scheduler daemon (repro.server) ---------------------------------
    MetricDoc(
        "server.jobs_submitted", "counter", "jobs",
        "repro.server.admission",
        "Job submissions received by the daemon (all outcomes).",
    ),
    MetricDoc(
        "server.jobs_admitted", "counter", "jobs",
        "repro.server.admission",
        "Submissions admitted and bound to machine capacity.",
    ),
    MetricDoc(
        "server.jobs_rejected", "counter", "jobs",
        "repro.server.admission",
        "Submissions rejected (statically or by wait timeout).",
    ),
    MetricDoc(
        "server.jobs_cancelled", "counter", "jobs",
        "repro.server.admission",
        "Queued or running jobs cancelled by clients.",
    ),
    MetricDoc(
        "server.jobs_timed_out", "counter", "jobs",
        "repro.server.admission",
        "Queued jobs rejected after exceeding the bounded wait.",
    ),
    MetricDoc(
        "server.ticks", "counter", "quanta",
        "repro.server.driver",
        "Decision quanta executed by the daemon's driver.",
    ),
    MetricDoc(
        "server.snapshots", "counter", "snapshots",
        "repro.server.driver",
        "Crash-safe server snapshots written.",
    ),
    MetricDoc(
        "server.queue_depth", "gauge", "jobs",
        "repro.server.driver",
        "Jobs waiting in the admission queue after the last tick.",
    ),
    MetricDoc(
        "server.active_jobs", "gauge", "jobs",
        "repro.server.driver",
        "Jobs running on the machine after the last tick.",
    ),
    MetricDoc(
        "server.connections", "counter", "connections",
        "repro.server.daemon",
        "TCP connections accepted (NDJSON and HTTP).",
    ),
    MetricDoc(
        "server.requests", "counter", "requests",
        "repro.server.daemon",
        "NDJSON requests parsed and dispatched.",
    ),
    MetricDoc(
        "server.events_dropped", "counter", "events",
        "repro.server.daemon",
        "Subscription events dropped by full client outboxes.",
    ),
)


def documented_names() -> FrozenSet[str]:
    """Every metric name (or dynamic-family pattern) with a row."""
    return frozenset(doc.name for doc in METRICS_REFERENCE)


def render_metrics_reference() -> str:
    """The docs table, sorted by metric name for a stable diff."""
    lines = [
        "| Metric | Kind | Unit | Emitting module | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for doc in sorted(METRICS_REFERENCE, key=lambda d: d.name):
        lines.append(
            f"| `{doc.name}` | {doc.kind} | {doc.unit} | "
            f"`{doc.module}` | {doc.description} |"
        )
    return "\n".join(lines) + "\n"
