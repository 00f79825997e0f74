"""Outside-in tracing of the decision loop's layers.

:func:`install` wraps the public calls into each layer — from the
benchmark's side, without touching ``src/`` — so that every call
records one span ``(name, start, end, parent, value)`` in memory.
``value`` carries the layer's own count where it has one (SGD
iterations, DDS evaluations, reconfigurations, provenance records).
:func:`per_layer` turns a span list into the per-quantum layer
metrics.

Spans are recorded on the thread that runs the decision loop; the
recorder keeps one parent stack and is not meant for concurrent
callers.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import BenchmarkError

#: Reads a span's count from the call's arguments and result.
Value = Optional[Callable[[Tuple[Any, ...], Any], float]]


def _iterations(args: Tuple[Any, ...], result: Any) -> float:
    diag = args[0].last_diagnostics
    return float(diag.iterations) if diag is not None else 0.0


#: (span name, module, class or None, callable name, value).  A class
#: of None wraps a module-level name: ``latency_training_rows`` is
#: wrapped where the controller looks it up.
WRAPPED: Tuple[Tuple[str, str, Optional[str], str, Value], ...] = (
    ("harness.step", "repro.experiments.harness", "QuantumStepper",
     "step", None),
    ("runtime.decide", "repro.core.runtime", "CuttleSysPolicy",
     "decide", None),
    ("runtime.observe", "repro.core.runtime", "CuttleSysPolicy",
     "observe", None),
    ("controller.decide", "repro.core.controller", "ResourceController",
     "decide", None),
    ("sgd.reconstruct", "repro.core.sgd", "PQReconstructor",
     "reconstruct", _iterations),
    ("mgk.rows", "repro.core.controller", None,
     "latency_training_rows", None),
    ("dds.search", "repro.core.dds", "DDSSearch", "search",
     lambda args, result: float(result.evaluations)),
    ("objective.evaluate_batch", "repro.core.objective",
     "SystemObjective", "evaluate_batch", None),
    ("machine.profile", "repro.sim.machine", "Machine", "profile", None),
    ("machine.run_slice", "repro.sim.machine", "Machine", "run_slice",
     lambda args, result: float(result.reconfigurations)),
    ("telemetry.audit", "repro.telemetry.accuracy", "AccuracyAuditor",
     "audit_decision", None),
    ("telemetry.audit", "repro.telemetry.accuracy", "AccuracyAuditor",
     "audit_measurement", None),
    ("telemetry.provenance", "repro.telemetry.provenance",
     "ProvenanceRecorder", "record",
     lambda args, result: 1.0 if result else 0.0),
    ("server.tick", "repro.server.driver", "QuantumDriver", "tick", None),
    ("server.snapshot", "repro.server.driver", "QuantumDriver",
     "write_snapshot", None),
    ("server.admission.drain", "repro.server.admission",
     "JobQueueManager", "drain", None),
)


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent, value]`` rows."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable[..., Any], name: str,
             value: Value = None) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            row = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            index = len(spans)
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    row[4] = value(args, result)
                return result
            finally:
                stack.pop()
                row[2] = clock()

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary in :data:`WRAPPED` with ``recorder``."""
    import importlib

    for name, module_name, owner, attr, value in WRAPPED:
        module = importlib.import_module(module_name)
        target = module if owner is None else getattr(module, owner)
        original = getattr(target, attr)
        setattr(target, attr, recorder.wrap(original, name, value))


def count_calls(module: Any, attr: str) -> List[int]:
    """Count calls of ``module.attr`` without timing them.

    Returns a one-element list holding the running count.
    """
    original = getattr(module, attr)
    calls = [0]

    @functools.wraps(original)
    def counted(*args: Any, **kwargs: Any) -> Any:
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    return calls


def load_spans(path: Path) -> List[List[Any]]:
    return json.loads(path.read_text(encoding="utf-8"))


#: Per-layer metrics computed from spans, all means per counted quantum.
SPAN_METRICS: Tuple[Tuple[str, str, str], ...] = (
    # (metric, span name, statistic)
    ("harness.step.ms", "harness.step", "ms"),
    ("harness.step.self_ms", "harness.step", "self_ms"),
    ("controller.decide.ms", "controller.decide", "ms"),
    ("controller.decide.self_ms", "controller.decide", "self_ms"),
    ("sgd.reconstruct.calls", "sgd.reconstruct", "calls"),
    ("sgd.reconstruct.ms", "sgd.reconstruct", "ms"),
    ("sgd.iterations", "sgd.reconstruct", "value"),
    ("mgk.rows.calls", "mgk.rows", "calls"),
    ("mgk.rows.ms", "mgk.rows", "ms"),
    ("dds.search.ms", "dds.search", "ms"),
    ("dds.evaluations", "dds.search", "value"),
    ("objective.evaluate_batch.calls", "objective.evaluate_batch", "calls"),
    ("objective.evaluate_batch.ms", "objective.evaluate_batch", "ms"),
    ("runtime.observe.ms", "runtime.observe", "ms"),
    ("machine.profile.ms", "machine.profile", "ms"),
    ("machine.run_slice.ms", "machine.run_slice", "ms"),
    ("machine.reconfigurations", "machine.run_slice", "value"),
    ("telemetry.audit.ms", "telemetry.audit", "ms"),
    ("telemetry.provenance.records", "telemetry.provenance", "value"),
    ("server.tick.ms", "server.tick", "ms"),
    ("server.tick.self_ms", "server.tick", "self_ms"),
    ("server.snapshot.ms", "server.snapshot", "ms"),
    ("server.admission.drain.ms", "server.admission.drain", "ms"),
)


def quantum_roots(spans: List[List[Any]], root: str) -> List[int]:
    """Indices of top-level ``root`` spans, in start order."""
    return [i for i, row in enumerate(spans) if row[0] == root and row[3] < 0]


def per_layer(
    spans: List[List[Any]], root: str, skip: int, scale: List[float]
) -> Dict[str, float]:
    """Layer metrics over the ``root`` spans after the first ``skip``.

    A span counts when its top-level ancestor is a counted root (one
    root per decision quantum); its times are multiplied by that
    root's entry in ``scale``.  Self time is a span's duration minus
    the durations of its direct children.
    """
    roots = quantum_roots(spans, root)[skip:]
    if not roots or len(roots) != len(scale):
        raise BenchmarkError(
            f"{len(roots)} {root!r} spans after skipping {skip}, "
            f"{len(scale)} scale factors"
        )
    counted = dict(zip(roots, scale))
    top = [-1] * len(spans)
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        top[i] = i if parent < 0 else top[parent]
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    cold_roots = set()
    for i, (name, start, end, _, value) in enumerate(spans):
        if top[i] not in counted:
            continue
        entry = totals.setdefault(
            name, {"ms": 0.0, "self_ms": 0.0, "calls": 0.0, "value": 0.0}
        )
        factor = counted[top[i]] * 1e3
        entry["ms"] += (end - start) * factor
        entry["self_ms"] += (end - start - child_time[i]) * factor
        entry["calls"] += 1
        entry["value"] += value
        if name == "mgk.rows":
            cold_roots.add(top[i])
    n = float(len(roots))
    out: Dict[str, float] = {}
    for metric, name, stat in SPAN_METRICS:
        out[metric] = totals.get(name, {}).get(stat, 0.0) / n
    out["mgk.cold_quantum_share"] = len(cold_roots) / n
    return out


def root_durations_ms(
    spans: List[List[Any]], root: str, skip: int = 0
) -> List[float]:
    """Wall time of each counted root span, in ms."""
    return [
        (spans[i][2] - spans[i][1]) * 1e3
        for i in quantum_roots(spans, root)[skip:]
    ]
