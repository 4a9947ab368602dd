import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splpo import (
    UNASSIGNED,
    GeneratorConfig,
    Instance,
    ProblemSpec,
    branch_and_bound,
    brute_force,
    ada,
    check_feasible,
    dual_ascent,
    generate_instance,
    solve_slr,
)
from splpo.semilagrange import DualAscent

from conftest import cheap_open_instance, cost_ceiling, random_instance

# Costs 1..4 give every customer tied rungs; cheap facilities keep optima open.
TIED = GeneratorConfig(cost_range=(1, 4), open_range=(5, 20))


def tied_instance(seed):
    """Seeded tied-cost instance with m and n in 2..6."""
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    return generate_instance(m, n, seed, TIED, name=f"tied{seed}")


# Small instances whose rung offsets differ: random costs (offsets from 0.5
# to over 100), tied costs 1..4 (0.5), and costs 1..9 with opening costs
# 0..3, where a free site often caps a customer's costliest rungs at cp.
LADDERS = {
    "random": lambda seed: random_instance(seed, m_max=6, n_max=6),
    "tied": tied_instance,
    "capped": lambda seed: generate_instance(
        6, 5, seed, GeneratorConfig(cost_range=(1, 9), open_range=(0, 3))),
}


def rung_offset(inst):
    """The documented offset: half the smallest positive gap between two
    sorted costs of one customer, else 1e-6 * (1 + the largest cost)."""
    gaps = np.diff(np.sort(inst.c, axis=1), axis=1)
    gaps = gaps[gaps > 0]
    return gaps.min() / 2 if gaps.size else 1e-6 * (1 + inst.c.max())


# --- placement -------------------------------------------------------------
# On toy the sorted costs are [2, 5] and [2, 4], so the offset is 1, and cp
# is [6, 7]: the rungs are [3, 6, 6] and [3, 5, 7].


def test_place_gamma_below_ladder(toy):
    ascent = DualAscent(toy, [0.0, 0.0])
    assert np.array_equal(ascent.gamma, [3.0, 3.0])
    assert np.array_equal(ascent.rung, [1, 1])


def test_place_gamma_inside_intervals(toy):
    assert np.array_equal(DualAscent(toy, [4.0, 3.0]).gamma, [3.0, 3.0])


def test_place_gamma_ceiling_top(toy):
    cp = cost_ceiling(toy)
    ascent = DualAscent(toy, cp)
    assert np.array_equal(ascent.gamma, cp)
    assert np.array_equal(ascent.rung, [3, 3])
    # strictly inside the top interval still snaps down, to rung 2, which
    # for customer 0 is capped at its cp
    ascent = DualAscent(toy, [5.9, 6.9])
    assert np.array_equal(ascent.gamma, [6.0, 5.0])
    assert np.array_equal(ascent.rung, [2, 2])


@pytest.mark.parametrize("gamma0", [
    [0.0, 0.0, 0.0, 0.0],  # length m + 2 would be truncated
    [1.0],  # length 1 would be broadcast
    5.0,
    [[0.0, 0.0]],
    [float("nan"), 0.0],  # NaN would pin to cp
], ids=["too_long", "too_short", "scalar", "two_dim", "nan"])
def test_place_gamma_rejects_malformed_gamma0(toy, gamma0):
    match = "NaN" if np.ndim(gamma0) == 1 and len(gamma0) == 2 else "shape"
    with pytest.raises(ValueError, match=match):
        DualAscent(toy, gamma0)
    with pytest.raises(ValueError, match=match):
        dual_ascent(toy, gamma0)


def _place_one(row, cp, g, offset):
    """The placement rule for one customer, written out case by case."""
    n = len(row)
    if g >= cp:
        return cp, n + 1
    k = int(np.searchsorted(row, g, side="left"))
    if k == 0:
        return min(row[0] + offset, cp), 1
    return min(row[k - 1] + offset, cp), k


@given(st.integers(0, 300), st.sampled_from(sorted(LADDERS)))
def test_place_gamma_matches_the_per_customer_rule(seed, family):
    inst = LADDERS[family](seed)
    costs, cp, offset = np.sort(inst.c, axis=1), cost_ceiling(inst), rung_offset(inst)
    rng = np.random.default_rng(seed)
    # Starts below, inside and above the ladder, on its costs and at cp.
    gamma0 = rng.uniform(-1, cp * 1.3)
    on_cost = rng.random(inst.m) < 0.3
    gamma0[on_cost] = costs[on_cost, rng.integers(0, inst.n, on_cost.sum())]
    at_cp = rng.random(inst.m) < 0.2
    gamma0[at_cp] = cp[at_cp]
    ascent = DualAscent(inst, gamma0)
    for i in range(inst.m):
        expected = _place_one(costs[i], cp[i], gamma0[i], offset)
        assert (ascent.gamma[i], ascent.rung[i]) == expected


@given(st.integers(0, 300))
def test_place_gamma_lands_above_cheapest(seed):
    # The offset must not lift a rung above cp, where a free site caps it.
    for make in LADDERS.values():
        inst = make(seed)
        cp = cost_ceiling(inst)
        gamma = DualAscent(inst, np.random.default_rng(seed).uniform(0, cp * 1.2)).gamma
        assert np.all(gamma > inst.c.min(axis=1))
        assert np.all(gamma <= cp)


# --- subproblem and subgradient ---------------------------------------------


def test_solve_slr_at_ceiling_serves_all(toy):
    slr = solve_slr(toy, 13.0)
    assert slr.value == 8.0
    assert slr.solution.open_facilities
    assert not (slr.solution.assign == UNASSIGNED).any()


def test_solve_slr_small_gamma_leaves_all_unserved(toy):
    slr = solve_slr(toy, 5.0)
    assert slr.value == 5.0
    assert slr.solution.open_facilities == frozenset()
    assert (slr.solution.assign == UNASSIGNED).all()


def test_solve_slr_zero_gamma(toy):
    slr = solve_slr(toy, 0.0)
    assert slr.value == 0.0
    assert (slr.solution.assign == UNASSIGNED).all()


# --- ascent ------------------------------------------------------------------


@contextlib.contextmanager
def opening_nothing():
    """Every subproblem solved at threshold 0, so each step opens nothing and
    the ascent climbs until it reaches the ceiling."""
    semilagrange = importlib.import_module("splpo.semilagrange")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semilagrange, "solve_slr", lambda inst, threshold, **_: solve_slr(inst, 0.0))
        yield


def test_ascend_moves_one_rung(toy):
    ascent = DualAscent(toy, [0.0, 0.0])
    ascent.step()
    assert np.array_equal(ascent.gamma, [6.0, 5.0])
    assert np.array_equal(ascent.rung, [2, 2])


@given(st.integers(0, 200), st.sampled_from(sorted(LADDERS)))
def test_ascend_moves_every_rung(seed, family):
    inst = LADDERS[family](seed)
    n, costs, cp = inst.n, np.sort(inst.c, axis=1), cost_ceiling(inst)
    offset = rung_offset(inst)
    with opening_nothing():
        ascent = DualAscent(inst, np.random.default_rng(seed).uniform(0, cp * 1.2))
        while not ascent.done:
            rung = ascent.rung
            ascent.step()
            if ascent.done:
                break
            assert np.array_equal(ascent.rung, np.minimum(rung + 1, n + 1))
            for i, r in enumerate(ascent.rung):
                top = cp[i] if r > n else min(costs[i, r - 1] + offset, cp[i])
                assert ascent.gamma[i] == top
    assert ascent.status == "ceiling" and ascent.iterations <= n + 1
    assert np.array_equal(ascent.gamma, cp)


def test_ascend_sticks_at_ceiling(toy):
    cp = cost_ceiling(toy)
    with opening_nothing():
        ascent = DualAscent(toy, cp)
        ascent.step()
    assert ascent.status == "ceiling"
    assert np.array_equal(ascent.gamma, cp)
    assert np.array_equal(ascent.rung, [3, 3])


# --- dual ascent -------------------------------------------------------------


def test_dual_ascent_toy_trace(toy):
    res = dual_ascent(toy, np.zeros(2))
    assert res.status == "optimal"
    assert [row.value for row in res.trace] == [6.0, 8.0]
    assert [row.served for row in res.trace] == [0, 2]
    assert res.best_lower_bound == 8.0
    assert np.array_equal(res.gamma, [6.0, 5.0])


def test_dual_ascent_from_ceiling_stops_immediately(toy):
    cp = cost_ceiling(toy)
    res = dual_ascent(toy, cp)
    assert res.status == "optimal"
    assert len(res.trace) == 1 and res.trace[0].iteration == 0
    assert res.best_lower_bound == 8.0


def test_dual_ascent_ends_at_the_ceiling_when_the_optimum_ties_the_empty_set():
    # Every rung is capped at cp, so the first step already runs at gamma =
    # cp, where the optimum equals sum(cp) = 8: the root's cheapest-service
    # bound ties the empty-set incumbent and prunes, so the step opens
    # nothing. Without the "ceiling" status, max_iter=None would loop forever.
    inst = Instance(f=[0, 0], c=[[5, 5], [3, 3]], p=[[1, 2], [2, 1]])
    assert brute_force(ProblemSpec.splpo(inst)).value == 8.0
    res = dual_ascent(inst, np.zeros(2))
    assert (res.status, res.iterations, res.best_lower_bound) == ("ceiling", 1, 8.0)
    assert res.last.solution.open_facilities == frozenset()
    assert res.trace[0].at_ceiling == 2
    out = ada(inst)
    assert out.da_status == "ceiling" and out.best_ub == out.best_lb == 8.0


def test_dual_ascent_climbs_past_tied_rungs():
    # One customer with costs 1, 3, 3, 7: rungs 2, 4, 4, 8 and cp = 17. The
    # climb from rung 2 to rung 3 leaves gamma at 4, which is no ceiling; it
    # resumes the last search at the same sum(gamma) without a new node.
    inst = Instance(f=np.full(4, 10.0), c=np.array([[1.0, 3.0, 3.0, 7.0]]),
                    p=np.array([[1, 2, 3, 4]]))
    ascent = DualAscent(inst, np.zeros(1))
    steps = []
    while not ascent.done:
        steps.append(ascent.step())
    assert ascent.status == "optimal" and ascent.best_lower_bound == 11.0
    assert [row.value for row in ascent.trace] == [2.0, 4.0, 4.0, 8.0, 11.0]
    assert steps[2].nodes == 0


def _finished_ascent(status):
    if status == "ceiling":
        inst = Instance(f=np.zeros(2), c=np.array([[5.0, 5.0], [3.0, 3.0]]),
                        p=np.array([[1, 2], [2, 1]]))
        return dual_ascent(inst, np.zeros(2))
    inst = random_instance(9, m_max=8, n_max=8)
    node_limit = 2 if status == "incomplete" else None
    return dual_ascent(inst, np.zeros(inst.m), node_limit=node_limit)


@pytest.mark.parametrize("status", ["optimal", "ceiling", "incomplete"])
def test_a_finished_ascent_takes_no_more_steps(status):
    ascent = _finished_ascent(status)
    assert ascent.done and ascent.status == status
    iterations, trace = ascent.iterations, list(ascent.trace)
    with pytest.raises(ValueError, match=f"status {status!r}"):
        ascent.step()
    assert (ascent.status, ascent.iterations, ascent.trace) == (status, iterations, trace)


def test_dual_ascent_iteration_cap(toy):
    res = dual_ascent(toy, np.zeros(2), max_iter=1)
    assert res.status == "iter_limit"
    assert res.iterations == 1


def test_dual_ascent_propagates_engine_limits():
    inst = random_instance(9, m_max=8, n_max=8)
    res = dual_ascent(inst, np.zeros(inst.m), node_limit=2)
    assert res.status == "incomplete"
    opt = brute_force(ProblemSpec.splpo(inst)).value
    assert res.best_lower_bound <= opt + 1e-9


def test_dual_ascent_solution_is_feasible_at_optimum(toy):
    res = dual_ascent(toy, np.zeros(2))
    sol = res.last.solution
    assert check_feasible(toy, sol) == []
    assert sol.objective == 8.0


@given(st.integers(0, 400))
def test_dual_ascent_closes_the_gap(seed):
    for inst in (random_instance(seed), tied_instance(seed)):
        res = dual_ascent(inst, np.zeros(inst.m))
        opt = brute_force(ProblemSpec.splpo(inst)).value
        assert res.status == "optimal", inst.name
        assert res.best_lower_bound == pytest.approx(opt, abs=1e-9)
        values = [row.value for row in res.trace]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


@given(st.integers(0, 60))
def test_dual_ascent_from_ceiling_property(seed):
    inst = random_instance(seed)
    cp = cost_ceiling(inst)
    res = dual_ascent(inst, cp)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    assert res.status == "optimal"
    assert len(res.trace) == 1
    assert res.best_lower_bound == pytest.approx(opt, abs=1e-9)


@given(st.integers(0, 60))
def test_gamma_below_cheapest_cost_serves_nobody(seed):
    inst = random_instance(seed, m_max=6, n_max=6)
    gamma = inst.c.min(axis=1) * 0.5  # strictly below every cheapest cost
    slr = solve_slr(inst, float(gamma.sum()))
    assert slr.solution.open_facilities == frozenset()
    assert (slr.solution.assign == UNASSIGNED).all()


@given(st.integers(0, 400))
def test_gamma_trajectory_monotone_and_boxed(seed):
    for inst in (random_instance(seed, m_max=7, n_max=7), tied_instance(seed)):
        cp = cost_ceiling(inst)
        ascent = DualAscent(inst, np.zeros(inst.m))
        prev = ascent.gamma
        while not ascent.done and ascent.iterations < 50:
            ascent.step()
            cur = ascent.gamma
            assert np.all(cur >= prev)
            assert np.all(cur <= cp)
            prev = cur
        assert ascent.done and ascent.status == "optimal", inst.name


def test_dual_ascent_lower_bound_never_exceeds_the_optimum():
    # A subproblem that opens something is priced like the original problem,
    # so on non-integer costs its value cannot land an ulp above the optimum.
    for seed in range(60):
        inst = cheap_open_instance(seed, m_range=(10, 16), n_range=(6, 9))
        opt = branch_and_bound(ProblemSpec.splpo(inst)).value
        res = dual_ascent(inst, np.zeros(inst.m))
        assert res.status == "optimal"
        assert max(row.value for row in res.trace) <= opt
        assert res.best_lower_bound <= opt


def _run_steps(inst, gamma0):
    ascent = DualAscent(inst, gamma0)
    steps = []
    while not ascent.done:
        steps.append(ascent.step())
    return ascent, steps


@pytest.mark.parametrize("kind", ["integer", "float"])
def test_resumed_dual_ascent_equals_fresh_steps(kind, monkeypatch):
    semilagrange = importlib.import_module("splpo.semilagrange")
    solve_slr_resumed = semilagrange.solve_slr

    def solve_slr_fresh(*args, resume=None, **kwargs):
        return solve_slr_resumed(*args, **kwargs)

    for seed in range(40):
        inst = cheap_open_instance(seed, integer=kind == "integer")
        rng = np.random.default_rng(seed)
        gamma0 = np.zeros(inst.m) if seed % 2 else rng.uniform(0, cost_ceiling(inst))
        ascent, steps = _run_steps(inst, gamma0)
        with monkeypatch.context() as patch:
            patch.setattr(semilagrange, "solve_slr", solve_slr_fresh)
            fresh_ascent, fresh_steps = _run_steps(inst, gamma0)
        assert ascent.trace == fresh_ascent.trace
        assert (ascent.status, ascent.best_lower_bound) == (
            fresh_ascent.status, fresh_ascent.best_lower_bound)
        for a, b in zip(steps, fresh_steps, strict=True):
            assert (a.value, a.status, a.lower_bound) == (b.value, b.status, b.lower_bound)
            assert a.solution.open_facilities == b.solution.open_facilities
            assert np.array_equal(a.solution.assign, b.solution.assign)
        # Every step after the first resumes the last, so together they
        # evaluate the nodes of one fresh search at the final gamma.
        assert sum(a.nodes for a in steps) == fresh_steps[-1].nodes


@pytest.mark.parametrize("kind", ["integer", "float"])
def test_every_step_serves_everyone_or_no_one(kind):
    # The fact dual ascent rests on: the preference constraints make any
    # non-empty open set serve every customer, so a step either opens
    # nothing at sum(gamma) or opens something and ends the ascent.
    for seed in range(30):
        inst = cheap_open_instance(seed, integer=kind == "integer")
        cp = cost_ceiling(inst)
        starts = [np.zeros(inst.m), np.random.default_rng(seed).uniform(0, cp), cp * 1.5]
        for gamma0 in starts:
            ascent = DualAscent(inst, gamma0)
            while not ascent.done:
                gamma = ascent.gamma
                res = ascent.step()
                assign = res.solution.assign
                if res.solution.open_facilities:
                    assert not (assign == UNASSIGNED).any()
                    assert ascent.done and ascent.status == "optimal"
                else:
                    assert res.value == float(gamma.sum())
                    assert (assign == UNASSIGNED).all()
                    assert ascent.trace[-1].served == 0
            assert ascent.status == "optimal"
            assert ascent.trace[-1].served == inst.m


def test_each_step_hands_the_engine_the_sum_of_its_multipliers(monkeypatch):
    # The engine takes one threshold: the driver keeps its multipliers and
    # passes their sum, so a step that opens nothing is valued at it exactly.
    semilagrange = importlib.import_module("splpo.semilagrange")
    handed = []

    def recording(inst, threshold, **kwargs):
        handed.append(threshold)
        return solve_slr(inst, threshold, **kwargs)

    monkeypatch.setattr(semilagrange, "solve_slr", recording)
    for seed in range(20):
        inst = cheap_open_instance(seed, integer=seed % 2 == 0)
        ascent = DualAscent(inst, np.zeros(inst.m))
        handed.clear()
        while not ascent.done:
            threshold = float(ascent.gamma.sum())
            res = ascent.step()
            assert type(handed[-1]) is float and handed[-1] == threshold
            if not res.solution.open_facilities:
                assert ascent.trace[-1].value == threshold
        assert len(handed) == ascent.iterations > 1
