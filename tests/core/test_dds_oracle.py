"""Differential oracles for the objective's and DDS's fast paths.

``SystemObjective.evaluate_batch`` gathers from per-config tables built
once per objective, and ``DDSSearch._perturb_batch`` works in place.
Both must stay bit-identical to the straightforward formulations kept
below as test-only references: the same objective values, the same
perturbed points, the same RNG draws in the same order, and therefore
the same search result for every seed.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dds import DDSParams, DDSSearch
from repro.core.deadline import reduced_dds_params
from repro.core.objective import SystemObjective
from repro.sim.coreconfig import N_JOINT_CONFIGS


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------

def reference_power_and_ways(objective, xs):
    cols = np.arange(objective.n_jobs)[None, :]
    power = np.sum(objective.power[cols, xs], axis=1) + objective.reserved_power
    ways = objective.ways_by_config[xs]
    halves = np.sum(ways == 0.5, axis=1)  # repro: noqa[UNIT301]
    whole = np.sum(np.where(ways == 0.5, 0.0, ways), axis=1)  # repro: noqa[UNIT301]
    return power, whole + np.ceil(halves / 2.0) + objective.reserved_ways


def reference_evaluate_batch(objective, xs):
    xs = np.asarray(xs, dtype=int)
    cols = np.arange(objective.n_jobs)[None, :]
    bips = objective.bips[cols, xs] * objective.time_share
    gmean = np.exp(np.mean(np.log(np.maximum(bips, 1e-12)), axis=1))
    power, total_ways = reference_power_and_ways(objective, xs)
    return (
        gmean
        - objective.penalty_power * np.maximum(0.0, power - objective.max_power)
        - objective.penalty_cache
        * np.maximum(0.0, total_ways - objective.max_ways)
    )


def reference_perturb_batch(local_x, free_dims, prob, radii, n_confs, rng):
    n_threads = local_x.shape[0]
    new_x = local_x.copy()
    chosen = rng.random((n_threads, free_dims.size)) < prob
    empty = ~chosen.any(axis=1)
    if empty.any():
        forced = rng.integers(0, free_dims.size, size=int(empty.sum()))
        chosen[np.nonzero(empty)[0], forced] = True
    steps = (
        radii[:, None] * n_confs
        * rng.standard_normal((n_threads, free_dims.size))
    )
    values = new_x[:, free_dims].astype(float)
    values = np.where(chosen, values + steps, values)
    upper = n_confs - 1
    values = np.where(values < 0, -values, values)
    values = np.where(values > upper, 2 * upper - values, values)
    values = np.clip(values, 0, upper)
    new_x[:, free_dims] = np.rint(values).astype(int)
    return new_x


def reference_search(objective, params, n_dims, n_confs, rng, fixed, initial):
    """Returns (best_x, best_value, history, evaluations, xs, values)."""
    fixed_dims = {d for d, _ in fixed}
    free_dims = np.array(
        [d for d in range(n_dims) if d not in fixed_dims], dtype=int
    )
    trace_x, trace_v = [], []

    def apply_fixed(xs):
        for d, v in fixed:
            xs[..., d] = v
        return xs

    def evaluate_many(xs):
        values = reference_evaluate_batch(objective, xs)
        trace_x.extend(x.copy() for x in xs)
        trace_v.extend(float(v) for v in values)
        return values

    candidates = apply_fixed(
        rng.integers(0, n_confs, size=(params.initial_random_points, n_dims))
    )
    if initial is not None:
        seeded = apply_fixed(np.asarray(initial, dtype=int).copy()[None, :])
        candidates = np.vstack([candidates, seeded])
    values = evaluate_many(candidates)
    best = int(np.argmax(values))
    best_x = candidates[best].copy()
    best_val = float(values[best])
    radii = np.array([
        params.perturbation_radii[
            min(
                t // max(1, params.n_threads // len(params.perturbation_radii)),
                len(params.perturbation_radii) - 1,
            )
        ]
        for t in range(params.n_threads)
    ])
    history = []
    for iteration in range(1, params.max_iter + 1):
        prob = 1.0 - math.log(iteration) / math.log(params.max_iter)
        prob = max(prob, 1.0 / free_dims.size)
        local_x = np.repeat(best_x[None, :], params.n_threads, axis=0)
        local_val = np.full(params.n_threads, best_val)
        for _ in range(params.points_per_iteration):
            new_x = reference_perturb_batch(
                local_x, free_dims, prob, radii, n_confs, rng
            )
            apply_fixed(new_x)
            new_val = evaluate_many(new_x)
            improved = new_val > local_val
            local_x[improved] = new_x[improved]
            local_val[improved] = new_val[improved]
        top = int(np.argmax(local_val))
        if local_val[top] > best_val:
            best_val = float(local_val[top])
            best_x = local_x[top].copy()
        history.append(best_val)
    return (best_x, best_val, history, len(trace_v),
            np.array(trace_x), np.array(trace_v))


# ----------------------------------------------------------------------
# Problem generators
# ----------------------------------------------------------------------

def make_objective(seed, n_jobs, flicker, time_share, reserved_power,
                   reserved_ways, tight):
    """A random objective; ``flicker`` selects the 27-config alphabet."""
    rng = np.random.default_rng(seed)
    n_confs = 27 if flicker else N_JOINT_CONFIGS
    bips = rng.uniform(0.0, 5.0, size=(n_jobs, n_confs))
    # Zero entries exercise the 1e-12 floor under the logarithm.
    bips[rng.random(bips.shape) < 0.1] = 0.0
    power = rng.uniform(0.5, 4.0, size=(n_jobs, n_confs))
    extra = {}
    if flicker:
        ways = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.25], size=n_confs)
        ways[rng.choice(n_confs, size=4, replace=False)] = 0.5
        extra["ways_by_config"] = ways
    scale = 0.5 if tight else 4.0
    return SystemObjective(
        bips=bips,
        power=power,
        max_power=scale * 2.0 * n_jobs + reserved_power,
        max_ways=scale * n_jobs + reserved_ways,
        reserved_power=reserved_power,
        reserved_ways=reserved_ways,
        time_share=time_share,
        **extra,
    )


objectives = st.builds(
    make_objective,
    seed=st.integers(0, 2**32 - 1),
    n_jobs=st.integers(1, 32),
    flicker=st.booleans(),
    time_share=st.sampled_from([1.0, 0.75, 0.3]),
    reserved_power=st.sampled_from([0.0, 7.5]),
    reserved_ways=st.sampled_from([0.0, 3.0]),
    tight=st.booleans(),
)


# ----------------------------------------------------------------------
# (a) evaluate_batch and power_and_ways
# ----------------------------------------------------------------------

@given(objective=objectives, seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_evaluate_batch_matches_reference(objective, seed, k):
    xs = np.random.default_rng(seed).integers(
        0, objective.n_confs, size=(k, objective.n_jobs)
    )
    assert np.array_equal(
        objective.evaluate_batch(xs), reference_evaluate_batch(objective, xs)
    )
    power, ways = objective.power_and_ways(xs)
    ref_power, ref_ways = reference_power_and_ways(objective, xs)
    assert np.array_equal(power, ref_power)
    assert np.array_equal(ways, ref_ways)


# ----------------------------------------------------------------------
# (b) _perturb_batch: same points, same RNG stream
# ----------------------------------------------------------------------

@given(
    seed=st.integers(0, 2**32 - 1),
    n_threads=st.integers(1, 20),
    n_dims=st.integers(1, 20),
    n_confs=st.integers(2, 108),
    prob=st.one_of(st.floats(0.0, 0.02), st.floats(0.0, 1.0)),
    radius=st.floats(0.01, 3.0),
    n_fixed=st.integers(0, 19),
)
@settings(max_examples=300, deadline=None)
def test_perturb_batch_matches_reference(
    seed, n_threads, n_dims, n_confs, prob, radius, n_fixed
):
    setup = np.random.default_rng(seed)
    local_x = setup.integers(0, n_confs, size=(n_threads, n_dims))
    fixed = setup.permutation(n_dims)[: min(n_fixed, n_dims - 1)]
    free_dims = np.setdiff1d(np.arange(n_dims), fixed)
    radii = radius * setup.uniform(0.5, 1.5, size=n_threads)
    before = local_x.copy()

    ref_rng = np.random.default_rng(seed + 1)
    expected = reference_perturb_batch(
        local_x, free_dims, prob, radii, n_confs, ref_rng
    )
    perturbed = [free_dims] if fixed.size else [free_dims, None]
    for dims in perturbed:
        rng = np.random.default_rng(seed + 1)
        got = DDSSearch._perturb_batch(
            local_x, dims, prob, radii[:, None] * n_confs, n_confs, rng
        )
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(local_x, before)


# ----------------------------------------------------------------------
# (c) whole searches
# ----------------------------------------------------------------------

@given(
    objective=objectives,
    seed=st.integers(0, 2**32 - 1),
    reduced=st.booleans(),
    n_fixed=st.integers(0, 2),
    seeded=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_search_matches_reference(objective, seed, reduced, n_fixed, seeded):
    params = reduced_dds_params(DDSParams()) if reduced else DDSParams()
    n_dims, n_confs = objective.n_jobs, objective.n_confs
    setup = np.random.default_rng(seed)
    fixed = [
        (int(d), int(setup.integers(0, n_confs)))
        for d in setup.permutation(n_dims)[: min(n_fixed, n_dims - 1)]
    ]
    initial = setup.integers(0, n_confs, size=n_dims) if seeded else None

    result = DDSSearch(params).search(
        objective, n_dims, n_confs, np.random.default_rng(seed),
        fixed=fixed, initial=initial, record_explored=True,
    )
    best_x, best_val, history, evaluations, xs, values = reference_search(
        objective, params, n_dims, n_confs, np.random.default_rng(seed),
        fixed, initial,
    )
    assert np.array_equal(result.best_x, best_x)
    assert result.best_objective == best_val
    assert result.history == history
    assert result.evaluations == evaluations
    assert np.array_equal(result.explored_x, xs)
    assert np.array_equal(result.explored_values, values)
