import contextlib
import itertools
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splpo import (
    GeneratorConfig,
    Instance,
    LagrangeMultipliers,
    ProblemSpec,
    brute_force,
    default_start,
    generate_instance,
    solve_lr,
    subgradient_method,
)
from splpo import lagrange
from splpo.lagrange import IMPROVEMENT_TOL, LrSolution, SgResult, SgTraceRow
from splpo.solution import assign_most_preferred

from conftest import random_instance


def raw_relaxed_objective(inst, mu, lam, x, y):
    """The penalized objective evaluated term by term from its definition,
    with no algebraic regrouping (oracle)."""
    total = float((inst.c * x).sum() + (inst.f * y).sum())
    total += float((mu * (1.0 - x.sum(axis=1))).sum())
    for i in range(inst.m):
        for j in range(inst.n):
            covered = sum(
                x[i, k] for k in range(inst.n) if inst.p[i, k] <= inst.p[i, j]
            )
            total += lam[i, j] * (y[j] - covered)
    return total


def oracle_min_relaxed(inst, mu, lam):
    """Independent minimization over binary (x, y) with x <= y.

    The objective is linear in x, so per-entry coefficients are recovered by
    finite differences of the raw objective; y is enumerated exhaustively.
    """
    zero_x = np.zeros((inst.m, inst.n))
    ones_y = np.ones(inst.n)
    base = raw_relaxed_objective(inst, mu, lam, zero_x, ones_y)
    coef = np.empty((inst.m, inst.n))
    for i in range(inst.m):
        for j in range(inst.n):
            unit = zero_x.copy()
            unit[i, j] = 1.0
            coef[i, j] = raw_relaxed_objective(inst, mu, lam, unit, ones_y) - base
    best = math.inf
    for bits in itertools.product((0.0, 1.0), repeat=inst.n):
        y = np.array(bits)
        value = raw_relaxed_objective(inst, mu, lam, zero_x, y)
        value += np.minimum(coef, 0.0)[:, y > 0].sum()
        best = min(best, value)
    return best


def oracle_min_relaxed_tiny(inst, mu, lam):
    """Fully assumption-free joint enumeration for very small instances."""
    best = math.inf
    cells = inst.m * inst.n
    for ybits in itertools.product((0.0, 1.0), repeat=inst.n):
        y = np.array(ybits)
        for xbits in itertools.product((0.0, 1.0), repeat=cells):
            x = np.array(xbits).reshape(inst.m, inst.n)
            if np.any(x > y[None, :]):
                continue
            best = min(best, raw_relaxed_objective(inst, mu, lam, x, y))
    return best


def random_multipliers(inst, rng):
    scale = float(inst.c.max() + inst.f.max())
    mu = rng.uniform(-0.2 * scale, scale, size=inst.m)
    lam = rng.uniform(0, 0.3 * scale, size=(inst.m, inst.n))
    return LagrangeMultipliers(mu=mu, lam=lam)


def test_solve_lr_toy(toy):
    lr = solve_lr(toy, LagrangeMultipliers(mu=[6.0, 7.0], lam=np.zeros((2, 2))))
    assert np.array_equal(lr.rho, [-4.0, -5.0])
    assert lr.y.all()
    assert lr.x.all()
    assert lr.value == 4.0
    assert lr.value <= 8.0  # weak duality against the known optimum
    assert lr.value == oracle_min_relaxed_tiny(toy, np.array([6.0, 7.0]), np.zeros((2, 2)))


def test_solve_lr_zero_multipliers(toy):
    lr = solve_lr(toy, LagrangeMultipliers(mu=np.zeros(2), lam=np.zeros((2, 2))))
    assert np.array_equal(lr.rho, toy.f)
    assert not lr.y.any()
    assert not lr.x.any()
    assert lr.value == 0.0


def test_solve_lr_zero_rho_stays_closed():
    # rho_1 == 0 exactly: opening and closing tie, closed is picked
    from splpo import Instance

    inst = Instance(
        f=np.array([0.0, 5.0]),
        c=np.array([[3.0, 4.0], [6.0, 1.0]]),
        p=np.array([[1, 2], [2, 1]]),
    )
    mu = inst.c[:, 0].copy()  # reduced costs vanish in column 0
    lr = solve_lr(inst, LagrangeMultipliers(mu=mu, lam=np.zeros((2, 2))))
    assert lr.rho[0] == 0.0
    assert not lr.y[0]
    assert not lr.x[:, 0].any()


@given(st.integers(0, 200))
def test_solve_lr_matches_oracle(seed):
    inst = random_instance(seed, m_max=4, n_max=4)
    rng = np.random.default_rng(seed + 1)
    mult = random_multipliers(inst, rng)
    lr = solve_lr(inst, mult)
    assert lr.value == pytest.approx(oracle_min_relaxed(inst, mult.mu, mult.lam), abs=1e-7)


def test_solve_lr_matches_joint_enumeration():
    for seed in range(10):
        inst = random_instance(seed, m_max=3, n_max=3)
        rng = np.random.default_rng(seed)
        mult = random_multipliers(inst, rng)
        lr = solve_lr(inst, mult)
        assert lr.value == pytest.approx(
            oracle_min_relaxed_tiny(inst, mult.mu, mult.lam), abs=1e-7
        )


def kernel_subgradient(inst, x, y):
    """(s_mu, s_lam) in site order from the relaxation kernel at x, shape
    (m, n), and y, shape (n,)."""
    rel = lagrange._RankRelaxation(inst)
    s_mu, s_lam = rel.subgradient(np.asarray(x).take(rel.to_rank), np.asarray(y).take(rel.facility))
    return s_mu, s_lam.take(rel.to_site)


def test_lr_subgradient_toy(toy):
    lr = solve_lr(toy, LagrangeMultipliers(mu=[6.0, 7.0], lam=np.zeros((2, 2))))
    s_mu, s_lam = kernel_subgradient(toy, lr.x, lr.y)
    assert np.array_equal(s_mu, [-1.0, -1.0])
    assert s_lam[0, 1] == -1.0


def test_lr_subgradient_on_feasible_point(toy):
    # indicators of a feasible solution: zero assignment residual and
    # nonpositive preference residual
    open_set = {1}
    assign = assign_most_preferred(toy, open_set)
    x = np.zeros((2, 2), dtype=np.int8)
    x[np.arange(2), assign] = 1
    y = np.array([False, True])
    s_mu, s_lam = kernel_subgradient(toy, x, y)
    assert np.array_equal(s_mu, np.zeros(2))
    assert np.all(s_lam <= 0)


def test_default_start_toy(toy):
    assert np.array_equal(default_start(toy).mu, [5.0, 3.0])


def test_sg_incumbent_non_decreasing_and_lambda_nonnegative():
    inst = random_instance(11, m_max=8, n_max=8)
    res = subgradient_method(inst, 120)
    bests = [row.lr_best for row in res.trace]
    assert all(b <= a + 1e-12 for b, a in zip(bests, bests[1:]))
    assert res.best_value >= bests[0]
    assert np.all(res.best_lam >= 0)


def test_sg_iterates_below_optimum():
    inst = random_instance(21, m_max=6, n_max=6)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    res = subgradient_method(inst, 200)
    for row in res.trace:
        assert row.lr_value <= opt + 1e-9
    assert res.best_value <= opt + 1e-9


@contextlib.contextmanager
def aiming_at(aim):
    """Subgradient steps aim at aim in place of heuristic_hc's objective,
    in subgradient_method and in its reference alike (None: unpatched)."""
    with pytest.MonkeyPatch.context() as patch:
        if aim is not None:
            patch.setattr(lagrange, "heuristic_hc",
                          lambda inst: types.SimpleNamespace(objective=aim))
        yield


def test_sg_aim_exceeded():
    inst = random_instance(31, m_max=5, n_max=5)
    with aiming_at(-1e9):
        res = subgradient_method(inst, 50)
    assert res.status == "aim_exceeded"
    assert res.iterations == 0


def test_sg_beta_exhaustion():
    # The paper's schedule: beta drops from 2 by 0.005 per stalled
    # iteration, so it runs out at least 30 + 400 iterations in.
    assert (lagrange.BETA0, lagrange.STALL_WINDOW, lagrange.BETA_DECREMENT) == (2.0, 30, 0.005)
    assert lagrange.SG_MAX_ITER == 1500
    inst = random_instance(41, m_max=5, n_max=5)
    res = subgradient_method(inst, 100000)
    assert res.status == "beta_exhausted"
    assert 430 <= res.iterations < 100000
    assert res.trace[-1].beta <= 0 < res.trace[-2].beta


@pytest.mark.parametrize("bad", [-1, 2.5, True, "3"])
def test_sg_budget_is_a_count(bad):
    # A nonnegative integer, a numpy one included; anything else is a
    # ValueError naming max_iter.
    inst = random_instance(51, m_max=5, n_max=5)
    with pytest.raises(ValueError, match="max_iter"):
        subgradient_method(inst, bad)
    assert subgradient_method(inst, np.int64(2)).iterations <= 2


def test_sg_iteration_budget():
    inst = random_instance(51, m_max=5, n_max=5)
    res = subgradient_method(inst, 7)
    assert res.iterations <= 7
    assert res.trace[0].iteration == 0


def test_sg_checks_its_start_once(monkeypatch):
    # The iterates are finite steps from a checked start; only the start and
    # the caller's own LagrangeMultipliers go through the checks.
    checks = []
    check = lagrange._check_lam
    monkeypatch.setattr(lagrange, "_check_lam", lambda lam: (checks.append(1), check(lam)))
    inst = generate_instance(12, 8, 3)
    res = subgradient_method(inst, 40)
    assert res.iterations == 40 and len(checks) == 2  # default_start, then the start's copy
    with pytest.raises(ValueError, match="lam"):
        LagrangeMultipliers(mu=np.zeros(2), lam=-np.ones((2, 2)))


def test_sg_trace_is_csv_friendly():
    inst = random_instance(71, m_max=4, n_max=4)
    res = subgradient_method(inst, 5)
    for row in res.trace:
        for field in ("iteration", "lr_value", "lr_best", "beta", "alpha", "s_norm_sq"):
            assert getattr(row, field) is not None


def test_sg_best_multipliers_reproduce_best_value():
    inst = random_instance(81, m_max=7, n_max=7)
    res = subgradient_method(inst, 80)
    lr = solve_lr(inst, LagrangeMultipliers(mu=res.best_mu, lam=res.best_lam))
    assert lr.value == pytest.approx(res.best_value, abs=1e-9)


def test_feasible_relaxation_point_respects_weak_duality():
    # Whenever the relaxed minimizer happens to satisfy the dualized
    # constraints, its true objective must sit at or above the dual value.
    from splpo import Solution, check_feasible, objective

    hits = 0
    for seed in range(200):
        inst = random_instance(seed, m_max=4, n_max=4)
        rng = np.random.default_rng(seed + 17)
        mult = random_multipliers(inst, rng)
        lr = solve_lr(inst, mult)
        if not np.array_equal(lr.x.sum(axis=1), np.ones(inst.m)):
            continue
        assign = np.argmax(lr.x, axis=1)
        open_set = frozenset(np.flatnonzero(lr.y).tolist())
        sol = Solution(open_facilities=open_set, assign=assign, objective=0.0)
        if any(v.kind == "preference" for v in check_feasible(inst, sol)):
            continue
        true_obj = objective(inst, sol)
        assert true_obj >= lr.value - 1e-9
        hits += 1
    assert hits > 0  # the property must actually have been exercised


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["mu", "lam"])
def test_multipliers_reject_non_finite_entries(toy, which, bad):
    mu, lam = np.array([6.0, 7.0]), np.zeros((2, 2))
    {"mu": mu, "lam": lam}[which][1] = bad
    with pytest.raises(ValueError, match=which):
        LagrangeMultipliers(mu=mu, lam=lam)


def test_relaxation_rejects_multipliers_of_the_wrong_shape():
    # A same-size array of another shape must not be read in flat order.
    inst = generate_instance(3, 2, 1)
    mu, lam = np.ones(3), np.zeros((3, 2))
    for bad_mu, bad_lam, name in ((np.ones(2), lam, "mu"), (np.ones((3, 1)), lam, "mu"),
                                  (mu, np.zeros((2, 3)), "lam"), (mu, np.zeros(6), "lam")):
        mult = LagrangeMultipliers(mu=bad_mu, lam=bad_lam)
        with pytest.raises(ValueError, match=name):
            solve_lr(inst, mult)
        with pytest.raises(ValueError, match=name):
            subgradient_method(inst, 5, start=mult)


# The relaxation and subgradient method as they stood when every step gathered
# with 2-D fancy indices and x was an int8 array: the faster code must
# reproduce them bit for bit.

def _reference_cumulative_lambda(inst, lam):
    rows = np.arange(inst.m)[:, None]
    by_rank = lam[rows, inst.facility_of_rank]
    suffix = np.cumsum(by_rank[:, ::-1], axis=1)[:, ::-1]
    return suffix[rows, inst.p - 1]


def _reference_solve_lr(inst, mu, lam):
    reduced = inst.c - mu[:, None] - _reference_cumulative_lambda(inst, lam)
    rho = np.minimum(reduced, 0.0).sum(axis=0) + inst.f + lam.sum(axis=0)
    y = rho < 0.0
    x = (y[None, :] & (reduced < 0.0)).astype(np.int8)
    value = float(rho[y].sum() + mu.sum())
    return LrSolution(value=value, x=x, y=y, rho=rho)


def _reference_lr_subgradient(inst, lr):
    x = lr.x.astype(float)
    rows = np.arange(inst.m)[:, None]
    s_mu = 1.0 - x.sum(axis=1)
    by_rank = x[rows, inst.facility_of_rank]
    prefix = np.cumsum(by_rank, axis=1)
    covered = prefix[rows, inst.p - 1]
    s_lam = lr.y.astype(float)[None, :] - covered
    return s_mu, s_lam


def _reference_subgradient_method(inst, max_iter, start):
    lr_aim = lagrange.heuristic_hc(inst).objective
    mu, lam = start.mu.copy(), start.lam.copy()
    lr = _reference_solve_lr(inst, mu, lam)
    best_value = lr.value
    best_mu, best_lam = mu.copy(), lam.copy()
    best_iteration, beta, stall, iteration, trace = 0, lagrange.BETA0, 0, 0, []
    while True:
        s_mu, s_lam = _reference_lr_subgradient(inst, lr)
        norm_sq = float((s_mu**2).sum() + (s_lam**2).sum())
        if norm_sq == 0.0:
            trace.append(SgTraceRow(iteration, lr.value, best_value, beta, 0.0, 0.0))
            status = "optimal"
            break
        gap = lr_aim - lr.value
        if gap < 0:
            trace.append(SgTraceRow(iteration, lr.value, best_value, beta, math.nan, norm_sq))
            status = "aim_exceeded"
            break
        alpha = beta * gap / norm_sq
        trace.append(SgTraceRow(iteration, lr.value, best_value, beta, alpha, norm_sq))
        if iteration >= max_iter:
            status = "iter_limit"
            break
        mu = mu + alpha * s_mu
        lam = np.maximum(0.0, lam + alpha * s_lam)
        lr = _reference_solve_lr(inst, mu, lam)
        iteration += 1
        if lr.value > best_value + IMPROVEMENT_TOL:
            best_value = lr.value
            best_mu, best_lam = mu.copy(), lam.copy()
            best_iteration = iteration
            stall = 0
        else:
            stall += 1
        if stall >= lagrange.STALL_WINDOW:
            beta -= lagrange.BETA_DECREMENT
        if beta <= 0:
            trace.append(SgTraceRow(iteration, lr.value, best_value, beta, math.nan, math.nan))
            status = "beta_exhausted"
            break
    return SgResult(best_value, best_mu, best_lam, best_iteration, iteration, status, trace)


def _fractional_instance(seed, m, n):
    rng = np.random.default_rng(seed)
    return Instance(f=rng.uniform(0, 50, n), c=rng.uniform(0, 30, (m, n)),
                    p=np.array([rng.permutation(n) + 1 for _ in range(m)]))


def _bit_identity_cases():
    """(instance, max_iter, start, the aim in place of heuristic_hc's or None)."""
    cost_consistent = GeneratorConfig(mode="cost-consistent")
    for seed in (1, 2):
        inst = generate_instance(75, 50, seed, cost_consistent)
        yield inst, lagrange.SG_MAX_ITER, default_start(inst), None
    shapes = [(1, 1), (1, 6), (7, 1), (2, 2), (5, 4), (8, 7)]
    for seed, (m, n) in enumerate(shapes * 3):
        rng = np.random.default_rng(seed)
        if seed < len(shapes):
            inst = generate_instance(m, n, seed)
        else:
            inst = _fractional_instance(seed, m, n)
        # Budgets up to 1000 reach the end of beta's schedule (30 stalled
        # iterations, then 400 decrements) in some runs and cut others short.
        max_iter = int(rng.integers(0, 1000))
        start = default_start(inst) if seed % 2 else random_multipliers(inst, rng)
        yield inst, max_iter, start, None
    # A zero subgradient at the start, and one reached after 32 steps.
    for m, n, seed in ((2, 1, 0), (1, 2, 2)):
        inst = generate_instance(m, n, seed)
        yield inst, lagrange.SG_MAX_ITER, default_start(inst), None
    # An aim below the start's relaxation value.
    inst = generate_instance(5, 4, 3)
    start = default_start(inst)
    yield inst, lagrange.SG_MAX_ITER, start, solve_lr(inst, start).value - 1.0
    # Every row of lam non-zero (the kernel sums whole rows), and exactly one
    # (it sums that row alone).
    rng = np.random.default_rng(7)
    inst = generate_instance(20, 9, 4)
    lam = rng.uniform(0.5, 3.0, (20, 9))
    yield inst, 150, LagrangeMultipliers(default_start(inst).mu, lam), None
    inst = _fractional_instance(5, 12, 8)
    lam = np.zeros((12, 8))
    lam[3] = rng.uniform(0.5, 3.0, 8)
    yield inst, 150, LagrangeMultipliers(default_start(inst).mu, lam), None
    # lam's non-zero rows all return to zero and later some are non-zero
    # again; and a start whose zero rows hold -0.0 entries, which the first
    # step makes +0.0 (best_lam is taken while lam is still all zero).
    inst = _fractional_instance(1, 5, 4)
    yield inst, 100, default_start(inst), None
    lam = np.zeros((5, 4))
    lam[::2] = -0.0
    yield inst, 5, LagrangeMultipliers(default_start(inst).mu, lam), None
    # mu so large that every site opens and serves everyone: a count reaches
    # n = 127, the most the narrow counter holds, and n = 130 in the wide one.
    for n in (127, 130):
        inst = generate_instance(3, n, n)
        mu = np.full(3, inst.c.max() + inst.f.max() + 1.0)
        yield inst, 40, LagrangeMultipliers(mu, np.zeros((3, n))), None


class _AddSpy:
    """Stands in for np.add and passes each accumulate call, with its
    result, to record."""

    def __init__(self, record):
        self.record = record

    def __getattr__(self, name):
        return getattr(np.add, name)

    def accumulate(self, a, *args, **kwargs):
        out = np.add.accumulate(a, *args, **kwargs)
        self.record(a, out, kwargs)
        return out


class _AccumulateSpy:
    """Stands in for numpy in the lagrange module and records its running
    sums (np.add.accumulate): whether lam was summed whole, into the
    kernel's buffer, or as a gather of fewer than half its rows, and the
    largest count per counter type."""

    def __init__(self):
        self.m, self.paths, self.counts = 0, set(), {}
        self.add = _AddSpy(self.record)

    def __getattr__(self, name):
        return getattr(np, name)

    def record(self, a, out, kwargs):
        if a.dtype == float:
            # Whole: all of lam, written to another buffer, never to lam.
            whole = len(a) == self.m and kwargs.get("out", a) is not a
            self.paths.add("whole" if whole else "rows" if 2 * len(a) < self.m else "other")
        elif out.size:
            self.counts[a.dtype] = max(self.counts.get(a.dtype, 0), int(out.max()))


def test_sg_is_bit_identical_to_the_gather_based_reference(monkeypatch):
    # repr round-trips every float exactly and reads NaN as equal to itself.
    statuses = set()
    spy = _AccumulateSpy()
    monkeypatch.setattr(lagrange, "np", spy)
    lam_live = []  # per relaxation of a run: whether lam holds a non-zero entry
    solve = lagrange._RankRelaxation.solve
    monkeypatch.setattr(lagrange._RankRelaxation, "solve", lambda rel, mu, lam, live=True: (
        lam_live.append("01"[bool(lam.any())]) or solve(rel, mu, lam, live)))
    returns = set()  # the shapes whose runs took lam from non-zero to all zero and back
    for inst, max_iter, start, aim in _bit_identity_cases():
        spy.m = inst.m
        lam_live.clear()
        with aiming_at(aim):
            res = subgradient_method(inst, max_iter, start)
            ref = _reference_subgradient_method(inst, max_iter, start)
        if re.search("10+1", "".join(lam_live)):
            returns.add((inst.m, inst.n))
        case = (inst, max_iter, aim)
        same_trace = repr(res.trace) == repr(ref.trace)  # no diff of two long reprs on failure
        assert same_trace, case
        assert (res.status, res.iterations, res.best_iteration) == (
            ref.status, ref.iterations, ref.best_iteration), case
        assert res.best_value == ref.best_value, case
        assert res.best_mu.tobytes() == ref.best_mu.tobytes(), case
        assert res.best_lam.tobytes() == ref.best_lam.tobytes(), case
        statuses.add(res.status)
    # beta_exhausted among them: some runs reach the end of beta's schedule.
    assert statuses == {"optimal", "aim_exceeded", "iter_limit", "beta_exhausted"}
    assert returns == {(75, 50), (5, 4)}
    assert spy.paths == {"whole", "rows"}
    assert spy.counts[np.dtype(np.int8)] == 127 and spy.counts[np.dtype(np.int64)] == 130


def test_sg_takes_an_inf_step_from_an_all_zero_lam():
    # An aim so high that the first step, which leaves lam all zero, sends
    # the relaxation value towards -1e308, so the second step's alpha is
    # inf: inf * 0 is NaN, so that step must be taken.
    inst = generate_instance(2, 2, 1)
    max_iter, start = 3, default_start(inst)
    with np.errstate(over="ignore", invalid="ignore"), aiming_at(8e307):
        res = subgradient_method(inst, max_iter, start)
        ref = _reference_subgradient_method(inst, max_iter, start)
    assert math.isfinite(ref.trace[0].alpha) and ref.trace[1].alpha == math.inf
    assert repr(res.trace) == repr(ref.trace)
    assert res.best_mu.tobytes() == ref.best_mu.tobytes()
    assert res.best_lam.tobytes() == ref.best_lam.tobytes()


def test_relaxation_steps_match_the_gather_based_reference():
    for seed in range(40):
        inst = random_instance(seed) if seed % 2 else _fractional_instance(seed, seed % 5 + 1,
                                                                           seed % 7 + 1)
        rng = np.random.default_rng(seed)
        mult = random_multipliers(inst, rng)
        lr, ref = solve_lr(inst, mult), _reference_solve_lr(inst, mult.mu, mult.lam)
        assert lr.value == ref.value
        assert np.array_equal(lr.x, ref.x) and lr.x.dtype == bool
        assert np.array_equal(lr.y, ref.y) and lr.rho.tobytes() == ref.rho.tobytes()
        # x as an int8 array, as a hand-built LrSolution may carry it.
        x8 = (rng.random((inst.m, inst.n)) < 0.3).astype(np.int8)
        y = rng.random(inst.n) < 0.5
        for x in (lr.x, x8):
            point = LrSolution(value=0.0, x=x, y=y, rho=np.zeros(inst.n))
            got, want = kernel_subgradient(inst, x, y), _reference_lr_subgradient(inst, point)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class _SkipSpy:
    """Stands in for numpy in the lagrange module and counts how often lam
    was summed (its float running sums) and stepped (its one np.maximum);
    the test's solve wrapper counts in spreads how often y was spread over
    the cells (each spread builds a new rel.y)."""

    def __init__(self):
        self.lam_sums, self.lam_steps, self.spreads = 0, 0, 0
        self.add = _AddSpy(self.record)

    def __getattr__(self, name):
        return getattr(np, name)

    def record(self, a, out, kwargs):
        self.lam_sums += a.dtype == float

    def maximum(self, *args, **kwargs):
        self.lam_steps += 1
        return np.maximum(*args, **kwargs)


def test_sg_skips_exactly_the_work_whose_inputs_did_not_change(monkeypatch):
    spy = _SkipSpy()
    monkeypatch.setattr(lagrange, "np", spy)
    rises = []  # per subgradient: whether s_lam has a positive entry
    subgradient = lagrange._RankRelaxation.subgradient

    def spy_subgradient(rel, x, y):
        s_mu, s_lam = subgradient(rel, x, y)
        rises.append(bool(s_lam.max() > 0))
        return s_mu, s_lam

    # Per relaxation: whether it read lam's rows, how many were non-zero, the
    # float running sums it made, the lam steps since the last one, and
    # whether the subgradient stepped along (if any) has a positive entry.
    relaxations = []
    solve = lagrange._RankRelaxation.solve

    def spy_solve(rel, mu, lam, live=True):
        sums, steps, y = spy.lam_sums, spy.lam_steps, rel.y
        out = solve(rel, mu, lam, live)
        spy.spreads += rel.y is not y
        spy.lam_steps = 0
        relaxations.append((live, int(lam.any(axis=1).sum()), spy.lam_sums - sums, steps,
                            rises[-1] if rises else None))
        return out

    monkeypatch.setattr(lagrange._RankRelaxation, "subgradient", spy_subgradient)
    monkeypatch.setattr(lagrange._RankRelaxation, "solve", spy_solve)
    inst = generate_instance(75, 50, 1, GeneratorConfig(mode="cost-consistent"))
    start = default_start(inst)
    res = subgradient_method(inst, start=start)
    ref = _reference_subgradient_method(inst, lagrange.SG_MAX_ITER, start)
    same_trace = repr(res.trace) == repr(ref.trace)  # no diff of two long reprs on failure
    assert same_trace
    assert (res.status, res.iterations, res.best_iteration, res.best_value) == (
        ref.status, ref.iterations, ref.best_iteration, ref.best_value)
    assert res.best_mu.tobytes() == ref.best_mu.tobytes()
    assert res.best_lam.tobytes() == ref.best_lam.tobytes()
    # One relaxation for the start, one per step; the subgradient is reused
    # at a repeated (x, y), and y is spread only when it changed.
    solves = len(relaxations)
    assert solves == res.iterations + 1
    assert 0 < len(rises) < res.iterations
    assert 0 < spy.spreads < solves
    read, rows, sums, steps, rising = zip(*relaxations)
    # lam starts with no non-zero row, and later gains some; it is summed
    # only in the relaxations where it has some.
    assert rows[0] == 0 and any(a == 0 < b for a, b in zip(rows, rows[1:]))
    assert spy.lam_sums == sum(r > 0 for r in rows)
    # The start is relaxed with its rows read, and the first step is always
    # taken. After that, a step from a lam with no non-zero row along a
    # subgradient with no positive entry leaves lam all +0.0: it is not
    # taken, and the relaxation reads and sums no row of lam. Every other
    # step is taken and its relaxation reads lam's rows.
    idle = [k >= 2 and rows[k - 1] == 0 and not rising[k] for k in range(solves)]
    assert read[0] and steps[0] == 0
    assert all(read[k] == (not idle[k]) and steps[k] == (not idle[k]) for k in range(1, solves))
    assert all(sums[k] == 0 for k in range(solves) if idle[k])
    assert 0 < sum(idle) < solves


def test_relaxation_without_lam_rows_keeps_signed_zeros():
    # With lam all zero nothing is added for it; signed zeros in c, f and mu
    # still give the reference's rho, x and y.
    inst = Instance(f=np.array([-0.0, 0.0, 2.0]), c=np.array([[-0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]]),
                    p=np.array([[1, 2, 3], [3, 2, 1]]))
    lam = np.zeros((2, 3))
    for mu in (np.zeros(2), -np.zeros(2), np.array([1.0, -0.0])):
        lr, ref = solve_lr(inst, LagrangeMultipliers(mu, lam)), _reference_solve_lr(inst, mu, lam)
        assert lr.rho.tobytes() == ref.rho.tobytes() and lr.value == ref.value
        assert np.array_equal(lr.x, ref.x) and np.array_equal(lr.y, ref.y)
