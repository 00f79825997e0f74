"""The decision-quantum benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``steady``  — mix 0 at constant load 0.6, in-process, warm quanta only;
* ``diurnal`` — five fresh episodes, one per LC service, on a diurnal
  load trace, in-process;
* ``daemon``  — a real ``repro serve`` driven over TCP by a closed-loop
  ticker and an open-loop control-plane poller.

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs it untraced and then traced (layer
wrappers installed from this directory) and prints the per-layer
metrics.  Either way the decision digest is gated: identical between
the traced and untraced runs, and identical to any earlier run of the
same workload and seed in this checkout.  The last stdout line is the
JSON result; any failed gate exits 1 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import (
    BENCH_DIR,
    ROOT,
    RUNS_DIR,
    PINNED_ENV,
    BenchmarkError,
    check_digest,
    child_env,
    die_with_parent,
    percentile,
    pin_cpu,
    pin_threads,
    scales,
    use_sources,
)

WORKLOADS = ("steady", "diurnal", "daemon")
#: Daemon boots per untraced run; ``setup_s`` is their median.
DAEMON_BOOTS = 3
CHILD_TIMEOUT_S = 170.0


def run_workload(workload: str, seed: int, seconds: float, run_dir: Path,
                 traced: bool, boots: int = 1) -> Dict[str, Any]:
    """One untraced or traced run; returns its raw samples."""
    tag = "traced" if traced else "untraced"
    spans: Optional[Path] = run_dir / f"{tag}.spans.json" if traced else None
    if workload == "daemon":
        from daemon_load import run_daemon

        result = run_daemon(seed, seconds, run_dir, tag, boots, spans)
        result["root"] = "server.tick"
    else:
        out = run_dir / f"{tag}.json"
        argv = [
            sys.executable, str(BENCH_DIR / "inproc.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
            "--out", str(out),
        ]
        if spans is not None:
            argv += ["--spans", str(spans)]
        code = subprocess.run(
            argv, env=child_env(), timeout=CHILD_TIMEOUT_S,
            preexec_fn=die_with_parent,
        ).returncode
        if code != 0:
            raise BenchmarkError(f"{workload} loop exited with code {code}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result.update(
            root="harness.step", churned_jobs=0,
            snapshot_bytes_first=0, snapshot_bytes_last=0,
        )
    result["spans"] = spans
    return result


def factors(result: Dict[str, Any]) -> List[float]:
    """Reference-time factor of each timed quantum."""
    out = scales(result["calibration_ms"])
    if len(out) != len(result["quantum_ms"]):
        raise BenchmarkError("calibration samples do not bracket quanta")
    return out


def reference_quanta(result: Dict[str, Any]) -> List[float]:
    return [q * f for q, f in zip(result["quantum_ms"], factors(result))]


def quanta_per_s(result: Dict[str, Any]) -> float:
    """Quanta per second of (reference) decision-loop time."""
    quanta = reference_quanta(result)
    return 1e3 * len(quanta) / sum(quanta)


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    quanta = reference_quanta(result)
    scale_of = factors(result)
    control = [
        ms * scale_of[i]
        for ms, i in zip(result["control_ms"], result["control_quantum"])
    ]
    return {
        "setup_s": result["setup_s"],
        "quantum_p50_ms": percentile(quanta, 50),
        "quantum_p90_ms": percentile(quanta, 90),
        "quanta_per_s": quanta_per_s(result),
        "control_p90_ms": percentile(control, 90),
        "peak_rss_mb": result["peak_rss_mib"],
        "qos_met_ratio": result["qos_met_ratio"],
        "power_met_ratio": result["power_met_ratio"],
        "batch_gmean_bips": result["batch_gmean_bips"],
        "ok_ratio": 1.0 - result["failed"] / result["attempted"],
    }


def per_layer(base: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    from layers import load_spans, per_layer as span_metrics, root_durations_ms

    spans = load_spans(traced["spans"])
    skip = traced["warmup_quanta"]
    scale_of = factors(traced)
    out = span_metrics(spans, traced["root"], skip, scale_of)
    protocol = 0.0
    if "tick_rtt_ms" in traced:
        rtt = traced["tick_rtt_ms"][skip:]
        ticks = root_durations_ms(spans, "server.tick", skip)
        if len(rtt) != len(ticks):
            raise BenchmarkError(
                f"{len(rtt)} tick replies but {len(ticks)} tick spans"
            )
        protocol = sum(
            (r - t) * f for r, t, f in zip(rtt, ticks, scale_of)
        ) / len(rtt)
    out.update({
        "server.protocol.ms": protocol,
        "server.snapshot.bytes_first": float(traced["snapshot_bytes_first"]),
        "server.snapshot.bytes_last": float(traced["snapshot_bytes_last"]),
        "loadgen.lag_ms": percentile(traced["control_lag_ms"], 90),
        "workload.churned_jobs": float(traced["churned_jobs"]),
        "trace.overhead_ratio": quanta_per_s(traced) / quanta_per_s(base) - 1,
    })
    return out


def declared_metrics() -> Dict[str, List[Dict[str, Any]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def report(values: Dict[str, float], declared: List[Dict[str, Any]],
           counts: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Print each declared metric; return the result's ``metrics``."""
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            raise BenchmarkError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        note = f"  ({counts[name]})" if name in counts else ""
        print(f"  {name:<32} {values[name]:>14.6g} {entry['unit']}{note}")
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an error, so every child is reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_threads()
    cpu = pin_cpu()
    try:
        use_sources()
        declared = declared_metrics()
    except (BenchmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env nproc={os.cpu_count()} cpu={cpu} "
          f"python={platform.python_version()} "
          f"numpy={numpy.__version__} "
          + " ".join(f"{k}={v}" for k, v in sorted(PINNED_ENV.items())))
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        boots = 1 if args.trace else DAEMON_BOOTS
        base = run_workload(
            args.workload, args.seed, args.seconds, run_dir, False, boots
        )
        runs = [base]
        if args.trace:
            traced = run_workload(
                args.workload, args.seed, args.seconds, run_dir, True
            )
            runs.append(traced)
            if traced["digest"] != base["digest"]:
                raise BenchmarkError(
                    "traced and untraced runs decided differently"
                )
        key = f"{args.workload}/seed{args.seed}/{base['digest_quanta']}q"
        matched = check_digest(key, base["digest"])
        print(f"digest {base['digest'][:16]} over {base['digest_quanta']} "
              f"quanta: " + ("matches the earlier run" if matched
                             else "first run of this seed here")
              + (", traced == untraced" if args.trace else ""))
        last = runs[-1]
        print(f"property churned_jobs={last['churned_jobs']} "
              f"snapshot_bytes_first={last['snapshot_bytes_first']} "
              f"snapshot_bytes_last={last['snapshot_bytes_last']}"
              + "".join(f" episode{i}_regime_builds={n}" for i, n in
                        enumerate(last.get("episode_regime_builds", []))))
        if args.trace:
            values = per_layer(base, traced)
            print(f"property mgk.cold_quantum_share="
                  f"{values['mgk.cold_quantum_share']:.4f} "
                  f"trace.overhead_ratio={values['trace.overhead_ratio']:.4f}")
            metrics = report(values, declared["per_layer"], {})
        else:
            n = len(base["quantum_ms"])
            counts = {
                "quantum_p50_ms": f"n={n} quanta",
                "quantum_p90_ms": f"n={n} quanta",
                "control_p90_ms": f"n={len(base['control_ms'])} requests",
            }
            metrics = report(end_to_end(base), declared["end_to_end"], counts)
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
