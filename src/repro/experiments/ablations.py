"""Ablation studies of CuttleSys's design choices (DESIGN.md hooks).

Each ablation removes or resizes one mechanism and measures the effect
on useful work, QoS, and the power budget:

* **inference** — SGD reconstruction vs perfect (oracle) inference:
  the gap is what the two-sample collaborative filter costs.
* **guards** — QoS guardbands off vs on: without them, exploratory LC
  configuration choices violate QoS.
* **variants** — historical service variants in the latency training
  set (0 vs default): fewer known-similar services degrade the LC
  configuration choice.
* **training size** — 8/16/24 offline-characterised batch apps,
  end-to-end (the §VIII-A2 study measured in throughput, not error).
* **penalty weight** — the soft power penalty of §VI-A: too low busts
  the budget, too high leaves throughput on the table.
* **dds budget** — DDS iterations vs solution quality (the maxIter
  trade-off discussed in §V/VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams, DDSSearch
from repro.core.matrices import power_rows, throughput_rows
from repro.core.objective import SystemObjective
from repro.core.oracle import OracleReconfigPolicy
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.experiments.reporting import format_table
from repro.fleet import (
    FleetParams,
    FleetRun,
    WorkUnit,
)
from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@dataclass(frozen=True)
class AblationRow:
    """Outcome of one configuration of one ablation."""

    label: str
    batch_instructions_b: float
    qos_violations: int
    power_violations: int


def _run_cuttlesys(
    mix_index: int,
    cap: float,
    n_slices: int,
    seed: int,
    config: ControllerConfig,
    label: str,
    train_profiles: Optional[Sequence] = None,
) -> AblationRow:
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=seed, config=config, train_profiles=train_profiles
    )
    run = run_policy(
        machine, policy, LoadTrace.constant(0.8),
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
    )
    return AblationRow(
        label=label,
        batch_instructions_b=run.total_batch_instructions() / 1e9,
        qos_violations=run.qos_violations(),
        power_violations=run.power_violations(),
    )


def ablate_inference(
    mix_index: int = 0, cap: float = 0.6, n_slices: int = 10, seed: int = 7
) -> Tuple[AblationRow, AblationRow]:
    """SGD inference vs the perfect-inference oracle."""
    sgd = _run_cuttlesys(
        mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
        "cuttlesys (SGD inference)",
    )
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    oracle = OracleReconfigPolicy(seed=seed)
    run = run_policy(
        machine, oracle, LoadTrace.constant(0.8),
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
    )
    return sgd, AblationRow(
        label="oracle inference",
        batch_instructions_b=run.total_batch_instructions() / 1e9,
        qos_violations=run.qos_violations(),
        power_violations=run.power_violations(),
    )


def ablate_guards(
    mix_index: int = 0, cap: float = 0.7, n_slices: int = 10, seed: int = 7
) -> Tuple[AblationRow, AblationRow]:
    """QoS guardbands on (default) vs effectively off."""
    with_guards = _run_cuttlesys(
        mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
        "guards on (default)",
    )
    no_guards = _run_cuttlesys(
        mix_index, cap, n_slices, seed,
        ControllerConfig(
            seed=seed,
            qos_guard_sparse=1e-6,
            qos_guard_medium=1e-6,
            qos_guard_dense=1e-6,
        ),
        "guards off",
    )
    return with_guards, no_guards


def ablate_variants(
    mix_index: int = 0, cap: float = 0.7, n_slices: int = 10, seed: int = 7
) -> Tuple[AblationRow, AblationRow]:
    """Historical latency variants (default 3/service) vs none."""
    with_variants = _run_cuttlesys(
        mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
        "3 variants/service (default)",
    )
    without = _run_cuttlesys(
        mix_index, cap, n_slices, seed,
        ControllerConfig(seed=seed, latency_variants_per_service=0),
        "no variants",
    )
    return with_variants, without


def ablate_training_size(
    sizes: Sequence[int] = (8, 16, 24),
    mix_index: int = 0,
    cap: float = 0.6,
    n_slices: int = 10,
    seed: int = 7,
) -> Tuple[AblationRow, ...]:
    """End-to-end effect of the offline training-set size (§VIII-A2)."""
    rows = []
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    for size in sizes:
        train_names, _ = train_test_split(n_train=size)
        machine = build_machine_for_mix(mix, seed=seed)
        policy = CuttleSysPolicy.for_machine(
            machine,
            seed=seed,
            config=ControllerConfig(seed=seed),
            train_profiles=[batch_profile(n) for n in train_names],
        )
        run = run_policy(
            machine, policy, LoadTrace.constant(0.8),
            power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
        )
        rows.append(
            AblationRow(
                label=f"{size} training apps",
                batch_instructions_b=run.total_batch_instructions() / 1e9,
                qos_violations=run.qos_violations(),
                power_violations=run.power_violations(),
            )
        )
    return tuple(rows)


def ablate_penalty_weight(
    weights: Sequence[float] = (0.25, 2.0, 16.0),
    mix_index: int = 0,
    cap: float = 0.6,
    n_slices: int = 10,
    seed: int = 7,
) -> Tuple[AblationRow, ...]:
    """Soft power-penalty weight of the DDS objective (§VI-A).

    Exposed through a dedicated objective run because the controller
    fixes the weight: we re-run the frozen search of Fig. 10a per
    weight and report predicted feasibility + throughput.
    """
    mix = paper_mixes()[mix_index]
    machine = build_machine_for_mix(mix, seed=seed)
    budget = machine.reference_max_power() * cap * 0.6  # batch share
    bips = throughput_rows(machine.batch_profiles, machine.perf)
    power = power_rows(machine.batch_profiles, machine.power)
    rows = []
    for weight in weights:
        objective = SystemObjective(
            bips=bips,
            power=power,
            max_power=budget,
            max_ways=machine.params.llc_ways - 4.0,
            penalty_power=weight,
        )
        result = DDSSearch(DDSParams()).search(
            objective, n_dims=bips.shape[0], n_confs=N_JOINT_CONFIGS,
            rng=np.random.default_rng(seed),
        )
        x = result.best_x
        over = max(0.0, objective.total_power(x) - budget)
        rows.append(
            AblationRow(
                label=f"penalty={weight:g}",
                batch_instructions_b=float(
                    bips[np.arange(bips.shape[0]), x].sum()
                ),
                qos_violations=0,
                power_violations=int(over > budget * 0.01),
            )
        )
    return tuple(rows)


def ablate_transition_cost(
    transitions_s: Sequence[float] = (50e-6, 2e-3, 10e-3),
    mix_index: int = 0,
    cap: float = 0.6,
    n_slices: int = 10,
    seed: int = 7,
) -> Tuple[AblationRow, ...]:
    """Sensitivity to the core-reconfiguration transition cost.

    The paper treats quantum-boundary reconfiguration as free; AnyCore's
    RTL suggests tens of microseconds.  This ablation raises the cost to
    the milliseconds regime to check how much CuttleSys's configuration
    churn would hurt on slower hardware.
    """
    from repro.sim.machine import MachineParams

    rows = []
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    for transition in transitions_s:
        machine = build_machine_for_mix(
            mix, seed=seed,
            params=MachineParams(reconfig_transition_s=transition),
        )
        policy = CuttleSysPolicy.for_machine(
            machine, seed=seed, config=ControllerConfig(seed=seed)
        )
        run = run_policy(
            machine, policy, LoadTrace.constant(0.8),
            power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
        )
        rows.append(
            AblationRow(
                label=f"transition {transition * 1e3:g} ms",
                batch_instructions_b=run.total_batch_instructions() / 1e9,
                qos_violations=run.qos_violations(),
                power_violations=run.power_violations(),
            )
        )
    return tuple(rows)


def ablate_dds_budget(
    iterations: Sequence[int] = (5, 40, 120),
    mix_index: int = 0,
    cap: float = 0.6,
    seed: int = 7,
) -> Dict[int, float]:
    """DDS maxIter vs achieved objective on a frozen problem."""
    mix = paper_mixes()[mix_index]
    machine = build_machine_for_mix(mix, seed=seed)
    budget = machine.reference_max_power() * cap * 0.6
    bips = throughput_rows(machine.batch_profiles, machine.perf)
    power = power_rows(machine.batch_profiles, machine.power)
    objective = SystemObjective(
        bips=bips,
        power=power,
        max_power=budget,
        max_ways=machine.params.llc_ways - 4.0,
    )
    out = {}
    for max_iter in iterations:
        result = DDSSearch(DDSParams(max_iter=max_iter)).search(
            objective, n_dims=bips.shape[0], n_confs=N_JOINT_CONFIGS,
            rng=np.random.default_rng(seed),
        )
        out[max_iter] = result.best_objective
    return out


def render_ablation(title: str, rows: Sequence[AblationRow]) -> str:
    """Text table for one ablation."""
    return (
        f"== {title} ==\n"
        + format_table(
            ["variant", "batch instr (B)", "QoS viol.", "power viol."],
            [
                (r.label, f"{r.batch_instructions_b:.2f}",
                 r.qos_violations, r.power_violations)
                for r in rows
            ],
        )
    )


# ----------------------------------------------------------------------
# Fleet-sharded ablation matrix.
# ----------------------------------------------------------------------

#: The matrix's (ablation, variants) grid, in render order.  Every
#: (ablation, variant) pair is one independent simulation, so the whole
#: matrix shards as fleet work units (``repro experiment ablations
#: --jobs N --checkpoint ...``).
ABLATION_MATRIX: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("inference", ("sgd", "oracle")),
    ("guards", ("on", "off")),
    ("variants", ("default", "none")),
    ("training-size", ("8", "16", "24")),
    ("penalty-weight", ("0.25", "2", "16")),
    ("transition-cost", ("50us", "2ms", "10ms")),
    ("dds-budget", ("5", "40", "120")),
)

#: Per-ablation power cap, matching the standalone ablate_* defaults.
_ABLATION_CAPS: Dict[str, float] = {
    "inference": 0.6,
    "guards": 0.7,
    "variants": 0.7,
    "training-size": 0.6,
    "penalty-weight": 0.6,
    "transition-cost": 0.6,
    "dds-budget": 0.6,
}

_TRANSITION_SECONDS: Dict[str, float] = {
    "50us": 50e-6, "2ms": 2e-3, "10ms": 10e-3,
}


def _run_oracle(
    mix_index: int, cap: float, n_slices: int, seed: int, label: str,
) -> AblationRow:
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    run = run_policy(
        machine, OracleReconfigPolicy(seed=seed), LoadTrace.constant(0.8),
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
    )
    return AblationRow(
        label=label,
        batch_instructions_b=run.total_batch_instructions() / 1e9,
        qos_violations=run.qos_violations(),
        power_violations=run.power_violations(),
    )


def _frozen_search_row(
    mix_index: int,
    cap: float,
    seed: int,
    label: str,
    penalty_weight: Optional[float] = None,
    max_iter: Optional[int] = None,
) -> AblationRow:
    """One frozen-problem DDS run (penalty-weight / dds-budget cells).

    For ``penalty_weight`` cells the row mirrors
    :func:`ablate_penalty_weight` (predicted instructions + feasibility);
    for ``max_iter`` cells ``batch_instructions_b`` carries the achieved
    *objective* of :func:`ablate_dds_budget` — the matrix keeps one row
    shape and the renderer labels the difference.
    """
    mix = paper_mixes()[mix_index]
    machine = build_machine_for_mix(mix, seed=seed)
    budget = machine.reference_max_power() * cap * 0.6  # batch share
    bips = throughput_rows(machine.batch_profiles, machine.perf)
    power = power_rows(machine.batch_profiles, machine.power)
    objective = SystemObjective(
        bips=bips,
        power=power,
        max_power=budget,
        max_ways=machine.params.llc_ways - 4.0,
        **(
            {"penalty_power": penalty_weight}
            if penalty_weight is not None else {}
        ),
    )
    params = (
        DDSParams(max_iter=max_iter) if max_iter is not None else DDSParams()
    )
    result = DDSSearch(params).search(
        objective, n_dims=bips.shape[0], n_confs=N_JOINT_CONFIGS,
        rng=np.random.default_rng(seed),
    )
    if max_iter is not None:
        return AblationRow(
            label=label,
            batch_instructions_b=result.best_objective,
            qos_violations=0,
            power_violations=0,
        )
    x = result.best_x
    over = max(0.0, objective.total_power(x) - budget)
    return AblationRow(
        label=label,
        batch_instructions_b=float(bips[np.arange(bips.shape[0]), x].sum()),
        qos_violations=0,
        power_violations=int(over > budget * 0.01),
    )


def _ablation_cell(
    ablation: str,
    variant: str,
    mix_index: int,
    n_slices: int,
    seed: int,
) -> Dict[str, Any]:
    """One (ablation, variant) simulation as a JSONable fleet unit."""
    cap = _ABLATION_CAPS[ablation]
    if ablation == "inference":
        if variant == "sgd":
            row = _run_cuttlesys(
                mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
                "cuttlesys (SGD inference)",
            )
        else:
            row = _run_oracle(
                mix_index, cap, n_slices, seed, "oracle inference",
            )
    elif ablation == "guards":
        config = (
            ControllerConfig(seed=seed) if variant == "on"
            else ControllerConfig(
                seed=seed,
                qos_guard_sparse=1e-6,
                qos_guard_medium=1e-6,
                qos_guard_dense=1e-6,
            )
        )
        label = "guards on (default)" if variant == "on" else "guards off"
        row = _run_cuttlesys(
            mix_index, cap, n_slices, seed, config, label
        )
    elif ablation == "variants":
        config = (
            ControllerConfig(seed=seed) if variant == "default"
            else ControllerConfig(seed=seed, latency_variants_per_service=0)
        )
        label = (
            "3 variants/service (default)" if variant == "default"
            else "no variants"
        )
        row = _run_cuttlesys(
            mix_index, cap, n_slices, seed, config, label
        )
    elif ablation == "training-size":
        size = int(variant)
        train_names, _ = train_test_split(n_train=size)
        row = _run_cuttlesys(
            mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
            f"{size} training apps",
            train_profiles=[batch_profile(n) for n in train_names],
        )
    elif ablation == "penalty-weight":
        weight = float(variant)
        row = _frozen_search_row(
            mix_index, cap, seed, f"penalty={weight:g}",
            penalty_weight=weight,
        )
    elif ablation == "transition-cost":
        from repro.sim.machine import MachineParams

        transition = _TRANSITION_SECONDS[variant]
        mix = paper_mixes()[mix_index]
        reference = reference_power_for_mix(mix, seed=seed)
        machine = build_machine_for_mix(
            mix, seed=seed,
            params=MachineParams(reconfig_transition_s=transition),
        )
        policy = CuttleSysPolicy.for_machine(
            machine, seed=seed, config=ControllerConfig(seed=seed)
        )
        run = run_policy(
            machine, policy, LoadTrace.constant(0.8),
            power_cap_fraction=cap, n_slices=n_slices,
            max_power_w=reference,
        )
        row = AblationRow(
            label=f"transition {transition * 1e3:g} ms",
            batch_instructions_b=run.total_batch_instructions() / 1e9,
            qos_violations=run.qos_violations(),
            power_violations=run.power_violations(),
        )
    elif ablation == "dds-budget":
        row = _frozen_search_row(
            mix_index, cap, seed, f"maxIter={int(variant)}",
            max_iter=int(variant),
        )
    else:
        raise ValueError(f"unknown ablation {ablation!r}")
    return {
        "ablation": ablation,
        "variant": variant,
        "label": row.label,
        "batch_instructions_b": row.batch_instructions_b,
        "qos_violations": row.qos_violations,
        "power_violations": row.power_violations,
    }


def ablation_units(
    mix_index: int,
    n_slices: int,
    seed: int,
) -> List[WorkUnit]:
    """The matrix's fleet work units, one per (ablation, variant)."""
    return [
        WorkUnit(
            unit_id=f"ablate/{ablation}/{variant}",
            fn=_ablation_cell,
            kwargs={
                "ablation": ablation, "variant": variant,
                "mix_index": mix_index, "n_slices": n_slices, "seed": seed,
            },
        )
        for ablation, variants in ABLATION_MATRIX
        for variant in variants
    ]


def rows_from_cells(
    cells: Sequence[Dict[str, Any]],
) -> Dict[str, Tuple[AblationRow, ...]]:
    """Regroup matrix cells into per-ablation row tuples (matrix order)."""
    by_key = {(c["ablation"], c["variant"]): c for c in cells}
    out: Dict[str, Tuple[AblationRow, ...]] = {}
    for ablation, variants in ABLATION_MATRIX:
        rows = []
        for variant in variants:
            cell = by_key[(ablation, variant)]
            rows.append(AblationRow(
                label=str(cell["label"]),
                batch_instructions_b=float(cell["batch_instructions_b"]),
                qos_violations=int(cell["qos_violations"]),
                power_violations=int(cell["power_violations"]),
            ))
        out[ablation] = tuple(rows)
    return out


def run_ablation_matrix(
    mix_index: int = 0,
    n_slices: int = 10,
    seed: int = 7,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> Dict[str, Tuple[AblationRow, ...]]:
    """Every ablation of :data:`ABLATION_MATRIX` as one sharded grid.

    The fleet flags follow the same contract as
    :func:`repro.experiments.scalability.run_scalability`.
    """
    fleet = FleetRun(
        "ablations",
        ablation_units(mix_index, n_slices, seed),
        FleetParams(jobs=jobs, checkpoint=checkpoint, resume=resume),
        seed=seed,
        context={"mix_index": mix_index, "n_slices": n_slices},
    )
    outcome = fleet.execute()
    return rows_from_cells(outcome.values())


def render_ablation_matrix(
    rows_by_ablation: Dict[str, Tuple[AblationRow, ...]],
) -> str:
    """All matrix tables, in :data:`ABLATION_MATRIX` order.

    ``dds-budget`` rows carry the achieved search *objective* in the
    instructions column, so that table gets its own heading.
    """
    titles = {
        "inference": "inference: SGD vs oracle",
        "guards": "QoS guardbands",
        "variants": "latency training variants",
        "training-size": "offline training-set size",
        "penalty-weight": "power-penalty weight (frozen search)",
        "transition-cost": "reconfiguration transition cost",
        "dds-budget": "DDS iteration budget (objective, frozen search)",
    }
    sections = []
    for ablation, _variants in ABLATION_MATRIX:
        rows = rows_by_ablation.get(ablation)
        if rows:
            sections.append(render_ablation(titles[ablation], rows))
    return "\n\n".join(sections)
