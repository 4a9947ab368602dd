"""Cross-check branch and bound against an independent MILP solver.

scipy's HiGHS solves the Hanjoul-Peeters formulation, which shares no code
with the engine: binary x[i, j] (customer i served by j) and y[j] (j open),

    min   sum c[i, j] x[i, j] + sum f[j] y[j]
    s.t.  sum_j x[i, j] = 1                          for every i
          x[i, j] <= y[j]                            for every i, j
          sum_{k: p[i, k] <= p[i, j]} x[i, k] >= y[j] for every i, j

The last family forces each customer onto a facility it ranks at least as
high as any open one, that is, onto its most preferred open facility.
"""

import numpy as np
import pytest

from splpo import (GeneratorConfig, ProblemSpec, ada, branch_and_bound, dual_ascent,
                   generate_instance, subgradient_method)

optimize = pytest.importorskip("scipy.optimize")

SEEDS = range(20)


def _instance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    n = int(rng.integers(2, 7))
    mode = "cost-consistent" if seed % 2 else "uniform"
    return generate_instance(m, n, seed, GeneratorConfig(mode=mode, open_range=(100, 800)))


def _milp_value(inst, forced_open=()):
    m, n = inst.m, inst.n
    nx = m * n

    def x(i, j):
        return i * n + j

    assign = np.zeros((m, nx + n))
    upper = np.zeros((m * n, nx + n))
    pref = np.zeros((m * n, nx + n))
    for i in range(m):
        assign[i, i * n:(i + 1) * n] = 1.0
        for j in range(n):
            row = i * n + j
            upper[row, x(i, j)] = 1.0
            upper[row, nx + j] = -1.0
            for k in range(n):
                if inst.p[i, k] <= inst.p[i, j]:
                    pref[row, x(i, k)] = 1.0
            pref[row, nx + j] = -1.0
    lower_bounds = np.zeros(nx + n)
    lower_bounds[[nx + j for j in forced_open]] = 1.0
    res = optimize.milp(
        c=np.concatenate([inst.c.ravel(), inst.f]),
        constraints=[
            optimize.LinearConstraint(assign, 1.0, 1.0),
            optimize.LinearConstraint(upper, -np.inf, 0.0),
            optimize.LinearConstraint(pref, 0.0, np.inf),
        ],
        integrality=np.ones(nx + n),
        bounds=optimize.Bounds(lower_bounds, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    assert res.success, res.message
    return res.fun, int(np.round(res.x[nx:]).sum())


@pytest.mark.parametrize("forced", [False, True])
def test_branch_and_bound_matches_milp(forced):
    opened = []
    for seed in SEEDS:
        inst = _instance(seed)
        forced_open = [seed % inst.n] if forced else []
        expected, count = _milp_value(inst, forced_open)
        res = branch_and_bound(ProblemSpec.splpo(inst, forced_open=forced_open))
        assert res.status == "optimal"
        assert res.value == pytest.approx(expected, rel=0, abs=1e-6), seed
        opened.append(count)
    # The suite must include optima that open several facilities.
    assert max(opened) >= 2


def test_the_bounds_bracket_the_milp_optimum():
    # Uncapped dual ascent closes the duality gap, ada's bounds bracket the
    # optimum, and the subgradient method's bound stays below it.
    for seed in SEEDS:
        inst = _instance(seed)
        opt, _ = _milp_value(inst)
        da = dual_ascent(inst, np.zeros(inst.m))
        assert da.status in ("optimal", "ceiling"), seed
        assert da.best_lower_bound == pytest.approx(opt, rel=0, abs=1e-6), seed
        if da.status == "optimal":
            assert da.last.value == pytest.approx(opt, rel=0, abs=1e-6), seed
        res = ada(inst)
        assert max(res.lb_sg, res.lb_da) <= opt + 1e-6 and res.best_ub >= opt - 1e-6, seed
        assert subgradient_method(inst).best_value <= opt + 1e-6, seed
