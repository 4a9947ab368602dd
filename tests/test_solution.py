import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splpo import (
    AdaConfig,
    GeneratorConfig,
    Instance,
    ProblemSpec,
    Solution,
    UNASSIGNED,
    Violation,
    ada,
    assign_most_preferred,
    branch_and_bound,
    brute_force,
    check_feasible,
    dual_ascent,
    generate_instance,
    heuristic_hc,
    heuristic_hs,
    objective,
    solution_to_json,
    subgradient_method,
)
from splpo.exact import _evaluate
from splpo.solution import open_mask

from conftest import random_instance


def make_solution(open_set, assign, obj=0.0):
    return Solution(
        open_facilities=frozenset(open_set),
        assign=np.array(assign, dtype=np.int64),
        objective=obj,
    )


def enumerate_feasible_assignments(inst, open_set):
    """Oracle: all assignment vectors satisfying the three constraint families
    in indicator form, by full enumeration."""
    feasible = []
    for assign in itertools.product(range(inst.n), repeat=inst.m):
        if any(j not in open_set for j in assign):
            continue
        ok = True
        for j in open_set:
            for i in range(inst.m):
                if inst.p[i, assign[i]] > inst.p[i, j]:
                    ok = False
        if ok:
            feasible.append(np.array(assign))
    return feasible


def test_assign_most_preferred_toy(toy):
    feas = enumerate_feasible_assignments(toy, {0, 1})
    assert len(feas) == 1
    assert np.array_equal(assign_most_preferred(toy, {0, 1}), feas[0])
    assert np.array_equal(assign_most_preferred(toy, {0, 1}), [0, 1])
    assert np.array_equal(assign_most_preferred(toy, {0}), [0, 0])
    with pytest.raises(ValueError, match="empty"):
        assign_most_preferred(toy, set())


@given(st.integers(0, 500))
def test_assign_most_preferred_is_feasible(seed):
    inst = random_instance(seed, m_max=5, n_max=5)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, inst.n + 1))
    open_set = set(rng.choice(inst.n, size=size, replace=False).tolist())
    assign = assign_most_preferred(inst, open_set)
    sol = make_solution(open_set, assign)
    assert check_feasible(inst, sol) == []
    oracle = enumerate_feasible_assignments(inst, open_set)
    assert len(oracle) == 1 and np.array_equal(assign, oracle[0])


def test_objective_values(toy):
    assert objective(toy, make_solution({1}, [1, 1])) == 8
    assert objective(toy, make_solution({0}, [0, 0])) == 9
    zero = Instance(f=np.zeros(2), c=np.zeros((2, 2)), p=np.array([[1, 2], [2, 1]]))
    assert objective(zero, make_solution({0}, [0, 0])) == 0
    with pytest.raises(ValueError, match="closed"):
        objective(toy, make_solution({1}, [0, 1]))


def test_objective_skips_unassigned(toy):
    assert objective(toy, make_solution({1}, [UNASSIGNED, 1])) == 2 + 1


def test_check_feasible_flags_preference_bypass(toy):
    sol = make_solution({0, 1}, [1, 1])
    kinds = {(v.kind, v.customer, v.facility) for v in check_feasible(toy, sol)}
    assert ("preference", 0, 0) in kinds


def test_check_feasible_accepts_valid(toy):
    assert check_feasible(toy, make_solution({1}, [1, 1])) == []


def test_check_feasible_flags_unassigned(toy):
    violations = check_feasible(toy, make_solution({1}, [UNASSIGNED, 1]))
    assert any(v.kind == "assignment" and v.customer == 0 for v in violations)


def test_check_feasible_flags_closed_assignment(toy):
    violations = check_feasible(toy, make_solution({1}, [0, 1]))
    assert any(v.kind == "open_link" and v.customer == 0 for v in violations)


def _reference_check_feasible(inst, sol):
    """check_feasible as the plain double loop over open facilities and
    customers, after refusing an open id that names no site."""
    violations = []
    open_set = sol.open_facilities
    if any(not 0 <= j < inst.n for j in open_set):
        raise ValueError("an open id names no site")
    for i in range(inst.m):
        j = int(sol.assign[i])
        if j == UNASSIGNED:
            violations.append(
                Violation("assignment", i, None, f"customer {i} is not assigned")
            )
        elif j not in open_set:
            violations.append(
                Violation(
                    "open_link", i, j, f"customer {i} assigned to closed facility {j}"
                )
            )
    for j in sorted(open_set):
        for i in range(inst.m):
            a = int(sol.assign[i])
            if a == UNASSIGNED or a not in open_set:
                covered = False
            else:
                covered = inst.p[i, a] <= inst.p[i, j]
            if not covered:
                violations.append(
                    Violation(
                        "preference",
                        i,
                        j,
                        f"customer {i} bypasses open facility {j} it weakly prefers",
                    )
                )
    return violations


def _outcome(fn, *args):
    """The result of fn(*args), or ValueError if it raised one."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _random_solutions(seed):
    """Seeded solutions with unassigned customers, closed servers, empty open
    sets, and (on the 3-site instance) ids of no site such as 7 and -4."""
    rng = np.random.default_rng(seed)
    three = Instance(f=np.array([3.0, 1.0, 2.0]), c=rng.random((5, 3)) * 10,
                     p=np.argsort(rng.random((5, 3)), axis=1) + 1)
    inst = three if seed % 2 else random_instance(seed, m_max=9, n_max=9)
    ids = [UNASSIGNED, 7, -4] + list(range(inst.n))
    for _ in range(20):
        size = int(rng.integers(0, inst.n + 1))
        open_set = rng.choice(inst.n, size=size, replace=False).tolist()
        if inst is three and rng.random() < 0.2:
            open_set.append(int(rng.choice([7, -4, -2])))
        assign = rng.choice(ids, size=inst.m)
        if rng.random() < 0.3 and size:
            assign = assign_most_preferred(inst, open_set[:size])
        yield inst, make_solution(open_set, assign)


def test_check_feasible_matches_reference_loop():
    cases = 0
    for seed in range(40):
        for inst, sol in _random_solutions(seed):
            assert _outcome(check_feasible, inst, sol) == _outcome(
                _reference_check_feasible, inst, sol
            )
            cases += 1
    assert cases == 800


def test_out_of_range_servers_are_open_link_violations():
    inst = Instance(f=np.ones(3), c=np.ones((3, 3)), p=np.array([[1, 2, 3]] * 3))
    sol = make_solution({0}, [7, -4, 0])
    kinds = [(v.kind, v.customer, v.facility) for v in check_feasible(inst, sol)]
    assert kinds == [("open_link", 0, 7), ("open_link", 1, -4),
                     ("preference", 0, 0), ("preference", 1, 0)]
    with pytest.raises(ValueError, match="closed facility 7"):
        objective(inst, sol)


@pytest.mark.parametrize("n, open_id", [(3, -2), (3, -1), (4, 9), (4, 4)])
def test_open_ids_of_no_site_raise(n, open_id):
    # As an index, -2 would name site 1 of 3, and 9 would raise IndexError.
    inst = Instance(f=np.ones(n), c=np.ones((5, n)), p=np.array([list(range(1, n + 1))] * 5))
    sol = Solution(frozenset({open_id}), assign=np.full(5, open_id), objective=0.0)
    for fn in (check_feasible, objective):
        with pytest.raises(ValueError, match=rf"open facilities holds \[{open_id}\], which are "
                                             rf"not sites 0\.\.{n - 1}"):
            fn(inst, sol)


@pytest.mark.parametrize("edit, message", [
    (lambda a: a[:4], "assign has 4 entries for 5 customers"),
    (lambda a: np.append(a, 0), "assign has 6 entries for 5 customers"),
    (lambda a: a.astype(float), "integer facility ids, got dtype float64"),
    (lambda a: a[None, :], r"assign must be 1-D, got shape \(1, 5\)"),
], ids=["short", "long", "float", "2-D"])
def test_an_assign_that_is_not_one_integer_per_customer_raises(edit, message):
    # A short assign used to be priced as if it were whole, a long one named
    # a customer the instance lacks, and a float one raised IndexError.
    inst = generate_instance(5, 3, 1)
    sol = heuristic_hc(inst)
    bad = Solution(sol.open_facilities, edit(sol.assign), sol.objective)
    for fn in (check_feasible, objective):
        with pytest.raises(ValueError, match=message):
            fn(inst, bad)
    assert check_feasible(inst, sol) == [] and objective(inst, sol) == 17026.0


def _float_instance(seed):
    """20x14, non-integer costs, preferences that follow costs."""
    rng = np.random.default_rng(seed)
    c = rng.random((20, 14)) * 100
    p = np.argsort(np.argsort(c, axis=1), axis=1) + 1
    f = rng.random(14) * 3 + 0.1
    return Instance(f=f, c=c, p=p)


def test_one_price_per_open_set():
    # Every producer of a splpo value prices an open set the same way, so
    # the same open set never carries two floats (and opt <= hc holds exactly).
    for seed in range(300):
        inst = _float_instance(seed)
        spec = ProblemSpec.splpo(inst)
        hc_sol, hs_sol = heuristic_hc(inst), heuristic_hs(inst)
        produced = [hc_sol, hs_sol]
        if seed < 5:
            da = dual_ascent(inst, np.zeros(inst.m))
            assert da.status == "optimal"
            produced.append(da.last.solution)
        for sol in produced:
            value, assign = _evaluate(spec, open_mask(inst, sol.open_facilities))
            assert np.array_equal(assign, sol.assign)
            assert sol.objective == value == objective(inst, sol)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            open_set = rng.choice(inst.n, size=int(rng.integers(1, inst.n + 1)), replace=False)
            value, assign = _evaluate(spec, open_mask(inst, open_set))
            assert objective(inst, make_solution(open_set, assign)) == value
        res = branch_and_bound(spec)
        assert res.value == objective(inst, res.solution)
        assert res.value <= hc_sol.objective
        if res.solution.open_facilities == hc_sol.open_facilities:
            assert res.value == hc_sol.objective


def test_heuristic_hc_toy_trace(toy):
    # Seed site 0 (service 6, objective 9), then site 1 takes customer 1
    # (service 4, objective 8): the best is the second round's, both sites.
    sol = heuristic_hc(toy)
    assert sol.objective == 8
    assert sol.open_facilities == frozenset({0, 1})
    assert sol.provenance == {"algorithm": "hc", "rounds": 2}
    assert check_feasible(toy, sol) == []


def test_heuristic_hs_toy_matches_hc(toy):
    hc_sol, hs_sol = heuristic_hc(toy), heuristic_hs(toy)
    assert hs_sol.open_facilities == hc_sol.open_facilities
    assert np.array_equal(hs_sol.assign, hc_sol.assign)
    assert hs_sol.objective == hc_sol.objective == 8
    assert hs_sol.provenance == {"algorithm": "hs", "rounds": 2}


def test_heuristics_on_minimal_instance():
    inst = Instance(f=np.zeros(1), c=np.zeros((1, 1)), p=np.array([[1]]))
    for heuristic in (heuristic_hc, heuristic_hs):
        sol = heuristic(inst)
        assert sol.objective == 0
        assert sol.provenance["rounds"] == 1


def test_hs_stops_early():
    # Second round cannot improve service cost, so hs stops after it while
    # hc keeps sweeping every facility.
    inst = random_instance(123, m_max=8, n_max=8)
    hc_rounds = heuristic_hc(inst).provenance["rounds"]
    hs_rounds = heuristic_hs(inst).provenance["rounds"]
    assert hc_rounds == inst.n
    assert hs_rounds <= hc_rounds


@given(st.integers(0, 400))
def test_hc_dominates_hs(seed):
    inst = random_instance(seed, m_max=12, n_max=8)
    hc_sol, hs_sol = heuristic_hc(inst), heuristic_hs(inst)
    assert hc_sol.objective <= hs_sol.objective
    assert hc_sol.provenance["rounds"] == inst.n
    assert check_feasible(inst, hc_sol) == []
    assert check_feasible(inst, hs_sol) == []


@given(st.integers(0, 150))
def test_heuristics_bound_the_optimum(seed):
    inst = random_instance(seed, m_max=8, n_max=8)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    assert opt <= heuristic_hc(inst).objective <= heuristic_hs(inst).objective


def _round_from_assign(inst, facility, assign):
    """The reference's record of one round, priced by its own gathers:
    facility taken, service cost, objective and sites in use."""
    rows = np.arange(inst.m)
    used = np.zeros(inst.n, dtype=bool)
    used[assign] = True
    service = inst.c[rows, assign].sum()
    return (facility, float(service), float(service + inst.f[used].sum()),
            frozenset(np.flatnonzero(used).tolist()))


def _reference_sweep(inst, early_stop, record=None):
    """The greedy sweep as a plain loop over the remaining facilities. It
    keeps every round's record, and extends the list record, when given,
    with them."""
    m, n = inst.m, inst.n
    j0 = int(np.argmin(inst.c.sum(axis=0)))
    assign = np.full(m, j0, dtype=np.int64)
    trace = [_round_from_assign(inst, j0, assign)]
    best, best_assign = trace[0], assign
    remaining = [j for j in range(n) if j != j0]
    tc_prev = trace[0][1]
    rows = np.arange(m)
    while remaining:
        best_j = best_tc = cand_assign = None
        for j in remaining:
            prefer_j = inst.p[:, j] < inst.p[rows, assign]
            cand = np.where(prefer_j, j, assign)
            tc = float(inst.c[rows, cand].sum())
            if best_tc is None or tc < best_tc:
                best_j, best_tc, cand_assign = j, tc, cand
        remaining.remove(best_j)
        assign = cand_assign
        trace.append(_round_from_assign(inst, best_j, assign))
        if trace[-1][2] < best[2]:
            best, best_assign = trace[-1], assign
        if early_stop:
            if best_tc >= tc_prev:
                break
            tc_prev = best_tc
    if record is not None:
        record.extend(trace)
    return Solution(best[3], best_assign, best[2],
                    {"algorithm": "hs" if early_stop else "hc", "rounds": len(trace)})


def _sweep_instances():
    """Seeded instances with many cost ties, with non-integer costs, and with
    one customer, one site or two sites."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 40)), int(rng.integers(2, 30))
        mode = "uniform" if seed % 2 else "cost-consistent"
        yield generate_instance(m, n, seed, GeneratorConfig(mode=mode, cost_range=(1, 5)))
        base = generate_instance(m, n, seed, GeneratorConfig(mode=mode))
        yield Instance(f=base.f + rng.random(n), c=base.c + rng.random((m, n)), p=base.p)
    for seed, (m, n) in enumerate([(1, 1), (1, 7), (9, 1), (12, 2), (1, 2), (30, 2)]):
        yield generate_instance(m, n, seed, GeneratorConfig(mode="uniform", cost_range=(1, 3)))
        rng = np.random.default_rng(seed)
        yield Instance(f=rng.random(n) * 5, c=rng.random((m, n)) * 10,
                       p=np.argsort(rng.random((m, n)), axis=1) + 1)


def _assert_same_sweep(sol, ref_sol):
    assert sol.open_facilities == ref_sol.open_facilities
    assert np.array_equal(sol.assign, ref_sol.assign)
    assert sol.objective == ref_sol.objective
    assert sol.provenance == ref_sol.provenance  # algorithm and rounds


def test_greedy_sweep_matches_reference_loop():
    # Either heuristic may come first on an instance; the one pass it runs
    # answers the other too.
    for inst in _sweep_instances():
        refs = {early_stop: _reference_sweep(inst, early_stop) for early_stop in (False, True)}
        for order in ((heuristic_hc, heuristic_hs), (heuristic_hs, heuristic_hc)):
            twin = Instance(f=inst.f, c=inst.c, p=inst.p)
            for heuristic in order:
                _assert_same_sweep(heuristic(twin), refs[heuristic is heuristic_hs])


def test_greedy_results_do_not_share_state():
    inst = generate_instance(30, 20, 4)
    for heuristic in (heuristic_hc, heuristic_hs):
        first = heuristic(inst)
        provenance, assign = dict(first.provenance), first.assign.copy()
        first.provenance["round"] = 3
        first.assign[:] = UNASSIGNED
        again = heuristic(inst)
        assert again.provenance == provenance
        assert np.array_equal(again.assign, assign)


def test_ada_runs_one_greedy_sweep(count_sweeps):
    # hc's bound, its step target for the subgradient method, and the warm
    # start of every variable-fixing solve all read one sweep.
    inst = generate_instance(60, 40, 1)
    res = ada(inst, AdaConfig(sg_iter=20, da_iter=3))
    assert res.vfh_solutions
    assert count_sweeps == {id(inst): 1}


def test_callers_sharing_an_instance_run_one_greedy_sweep(count_sweeps):
    inst = generate_instance(30, 20, 2)
    hc_sol = heuristic_hc(inst)
    hs_sol = heuristic_hs(inst)
    res = branch_and_bound(ProblemSpec.splpo(inst))
    sg = subgradient_method(inst, 5)
    assert count_sweeps == {id(inst): 1}
    assert res.value <= hc_sol.objective <= hs_sol.objective
    assert sg.best_value <= res.value


def test_hs_alone_runs_the_one_pass_a_later_hc_reads(count_sweeps):
    # hs asked for first runs the whole pass, though its answer stops at an
    # earlier round; a later hc reads that pass and runs no sweep of its own.
    inst = generate_instance(30, 20, 2)
    hs_sol = heuristic_hs(inst)
    assert count_sweeps == {id(inst): 1}
    assert hs_sol.provenance["rounds"] < inst.n
    heuristic_hs(inst)
    hc_sol = heuristic_hc(inst)
    heuristic_hc(inst)
    assert count_sweeps == {id(inst): 1}
    assert hc_sol.provenance["rounds"] == inst.n
    _assert_same_sweep(hc_sol, _reference_sweep(inst, early_stop=False))


def test_greedy_sweep_takes_each_site_once_when_totals_overflow():
    # Every candidate total is inf, so the masked argmin alone could pick a
    # site already taken; the sweep still adds the untaken sites in order.
    inst = Instance(f=np.ones(4), c=np.full((3, 4), 1e308),
                    p=np.array([[1, 2, 3, 4], [4, 3, 2, 1], [2, 1, 4, 3]]))
    with np.errstate(over="ignore"):
        for heuristic, early_stop in ((heuristic_hc, False), (heuristic_hs, True)):
            _assert_same_sweep(heuristic(inst), _reference_sweep(inst, early_stop))
        record = []
        _reference_sweep(inst, False, record)
        assert [r[0] for r in record] == [0, 1, 2, 3]
        assert heuristic_hc(inst).provenance["rounds"] == 4


def test_hs_stops_at_a_tie_with_the_seed_round():
    # The seed column summed down the rows can exceed its pairwise sum, the
    # seed round's recorded service cost, by an ulp. Site 1 moves nobody, so
    # round 1 ties the seed exactly and hs must stop there.
    rng = np.random.default_rng(3)
    while True:
        col0 = rng.random(12) * 10
        c = np.column_stack([col0, col0 + 5, col0 + 1])
        if c.sum(axis=0)[0] > c[:, 0].copy().sum():
            break
    p = np.array([[1, 3, 2]] * 6 + [[2, 3, 1]] * 6)
    inst = Instance(f=np.ones(3), c=c, p=p)
    record = []
    ref_sol = _reference_sweep(inst, True, record)
    assert record[0][1] == 75.58585380888879
    assert [r[0] for r in record] == [0, 1]
    assert record[1][1] == record[0][1]
    sol = heuristic_hs(inst)
    assert sol.provenance["rounds"] == 2
    assert heuristic_hc(inst).provenance["rounds"] == 3
    _assert_same_sweep(sol, ref_sol)


def test_solution_json_handles_unassigned():
    # Facility ids are 1-based on disk and an unassigned customer is null.
    sol = Solution(frozenset({0}), np.array([UNASSIGNED, 0]), 5.0,
                   {"algorithm": "hc", "rounds": 1})
    assert json.loads(solution_to_json(sol)) == {
        "open": [1], "assign": [None, 1], "objective": 5.0,
        "provenance": {"algorithm": "hc", "rounds": 1}}


def test_records_compare_array_fields_by_value():
    sol = Solution(frozenset({0}), np.array([0, 0]), 1.0)
    assert (sol == Solution(frozenset({0}), np.array([0, 0]), 1.0, {"algorithm": "hc"})) is True
    assert (sol == Solution(frozenset({0}), np.array([0, 1]), 1.0)) is False
    assert sol != Solution(frozenset({0}), np.array([0]), 1.0)
    inst = generate_instance(12, 8, 4)
    first, second = (branch_and_bound(ProblemSpec.splpo(inst)) for _ in range(2))
    assert first.nodes > 1 and (first == second) is True
    assert subgradient_method(inst) == subgradient_method(inst)
