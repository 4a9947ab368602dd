"""Variable fixing and the accelerated dual ascent pipeline.

The pipeline warms up multipliers with the subgradient method, hands the
best ones to dual ascent, and then alternates single ascent iterations with
a variable-fixing pass: a cheap-keyed fraction of the facilities open in the
current relaxed solution is forced open and the restricted original problem
is solved exactly. The best feasible solution across the sweep history and
the greedy warm-start bound is returned.
"""

from __future__ import annotations

import math
import time

from .exact import ProblemSpec, branch_and_bound
from .instance import (FrozenRecord, Instance, Record, check_count, check_limits, check_sites,
                       facility_sort_keys)
from .lagrange import SgResult, subgradient_method
from .semilagrange import dual_ascent
from .solution import Solution, check_feasible, heuristic_hc


# The paper's variable-fixing schedule: VFH_ITER rounds, each forcing open
# ceil(PS * k) of the k sites open in the current relaxed solution.
VFH_ITER = 2
PS = 0.25


class AdaConfig(FrozenRecord):
    """Stage budgets and engine limits for the pipeline.

    sg_iter and da_iter are iteration budgets for the warm-up and the plain
    ascent stage, the max_iter of subgradient_method and of dual_ascent; the
    ascent+fixing rounds follow the paper's schedule (VFH_ITER rounds, each
    fixing a PS fraction). node_limit applies to each engine call.
    time_limit, in seconds, is one budget for the whole
    pipeline call: dual ascent and every fixing solve get the time left, so
    a stage that starts after it expires returns the engine's incumbent at
    once. The budgets and node_limit are stored as ints. Dual ascent derives
    its rung offset and the warm-up its step aim from the instance, and the
    warm-up's step schedule is the paper's (see DualAscent and
    subgradient_method).
    """

    __slots__ = ("sg_iter", "da_iter", "node_limit", "time_limit")

    def __init__(self, sg_iter: int = 50, da_iter: int = 3, node_limit: int | None = None,
                 time_limit: float | None = None):
        sg_iter = check_count("sg_iter", sg_iter)
        da_iter = check_count("da_iter", da_iter)
        node_limit = check_limits(node_limit, time_limit)
        self._set(sg_iter, da_iter, node_limit, time_limit)


# Empirical budgets per (m, n) bucket; the fixing rounds keep the paper's
# schedule (VFH_ITER, PS) at every size.
PRESETS = {
    (75, 50): AdaConfig(sg_iter=50, da_iter=3),
    (100, 75): AdaConfig(sg_iter=100, da_iter=7),
    (125, 100): AdaConfig(sg_iter=170, da_iter=10),
    (150, 100): AdaConfig(sg_iter=170, da_iter=12),
}


def preset_config(size: tuple[int, int]) -> AdaConfig:
    """The preset of the (m, n) bucket, or else of the nearest one by m * n."""
    m, n = size
    if (m, n) in PRESETS:
        return PRESETS[(m, n)]
    return PRESETS[min(PRESETS, key=lambda s: abs(s[0] * s[1] - m * n))]


def vfh(
    inst: Instance,
    y_gamma,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> Solution:
    """Force open a cheap fraction of the given facilities, then solve exactly.

    The facilities are sorted by sum_i c[i, j] + m * f[j] (ties to the lower
    index) and the first ceil(PS * k) are fixed open, k counting the distinct
    ids in y_gamma, PS being the paper's fraction. An empty input set
    degenerates to an unrestricted exact solve. If the engine hits its
    limits the incumbent is returned, flagged heuristic in its provenance.
    Each id in y_gamma must be an integer site index (a bool or a float
    raises ValueError).
    """
    ids = check_sites("y_gamma", y_gamma, inst.n)
    keys = facility_sort_keys(inst)
    open_now = sorted(set(ids), key=lambda j: (keys[j], j))
    count = math.ceil(PS * len(open_now))
    fixed = open_now[:count]
    spec = ProblemSpec.splpo(inst, forced_open=fixed)
    res = branch_and_bound(spec, node_limit=node_limit, time_limit=time_limit)
    provenance = {
        "algorithm": "vfh",
        "fixed_open": [j + 1 for j in fixed],
        "engine_status": res.status,
        "heuristic": res.status != "optimal",
    }
    sol = res.solution
    return Solution(sol.open_facilities, sol.assign, sol.objective, provenance)


class AdaResult(Record):
    __slots__ = ("best_solution", "best_ub", "lb_sg", "lb_da", "sg", "da_trace", "da_status",
                 "vfh_solutions", "hc_solution", "timings")

    def __init__(self, best_solution: Solution, best_ub: float, lb_sg: float, lb_da: float,
                 sg: SgResult, da_trace: list, da_status: str, vfh_solutions: list | None = None,
                 hc_solution: Solution | None = None, timings: dict | None = None):
        self.best_solution = best_solution
        self.best_ub = best_ub
        self.lb_sg = lb_sg
        self.lb_da = lb_da
        self.sg = sg
        self.da_trace = da_trace
        self.da_status = da_status
        self.vfh_solutions = [] if vfh_solutions is None else vfh_solutions
        self.hc_solution = hc_solution
        self.timings = {} if timings is None else timings

    @property
    def best_lb(self) -> float:
        """The better of the two bounds, capped at best_ub: a bound can round
        past the optimum, which is at most best_ub (lb_sg by a few ulps)."""
        return min(max(self.lb_sg, self.lb_da), self.best_ub)


def ada(inst: Instance, cfg: AdaConfig = AdaConfig()) -> AdaResult:
    """Run the full pipeline and return the best feasible solution found.

    Stages: greedy bound, subgradient warm-up from mu_i = min_j (c[i,j]+f[j]),
    dual ascent seeded with the warm-up's best multipliers, then VFH_ITER
    rounds of one ascent iteration followed by a variable-fixing solve. A
    round whose input open set equals the latest solve's (the empty set
    while the ascent opens nothing, the final set once it is done) repeats
    that solve's solution instead of solving the same problem again.
    """
    deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit

    def time_left():
        return None if deadline is None else max(0.0, deadline - time.monotonic())

    timings: dict = {}

    t0 = time.perf_counter()
    hc_sol = heuristic_hc(inst)
    timings["hc"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sg = subgradient_method(inst, cfg.sg_iter)
    timings["sg"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    driver = dual_ascent(inst, sg.best_mu, max_iter=cfg.da_iter, node_limit=cfg.node_limit,
                         time_limit=time_left())
    timings["da"] = time.perf_counter() - t0

    vfh_solutions: list[Solution] = []
    fixed_from = None  # the input open set of the latest solve
    t0 = time.perf_counter()
    for round_no in range(VFH_ITER):
        if not driver.done:
            driver.step()
        open_now = driver.last.solution.open_facilities
        if open_now == fixed_from:
            prev = vfh_solutions[-1]
            sol = Solution(prev.open_facilities, prev.assign, prev.objective,
                           {**prev.provenance, "round": round_no})
        else:
            sol = vfh(inst, open_now, node_limit=cfg.node_limit, time_limit=time_left())
            sol.provenance["round"] = round_no
            fixed_from = open_now
        vfh_solutions.append(sol)
    timings["vfh"] = time.perf_counter() - t0

    candidates = [hc_sol] + vfh_solutions
    feasible = [s for s in candidates if not check_feasible(inst, s)]
    best = min(feasible, key=lambda s: s.objective)

    return AdaResult(
        best_solution=best,
        best_ub=best.objective,
        lb_sg=sg.best_value,
        lb_da=driver.best_lower_bound,
        sg=sg,
        da_trace=driver.trace,
        da_status=driver.status,
        vfh_solutions=vfh_solutions,
        hc_solution=hc_sol,
        timings=timings,
    )


__all__ = ["AdaConfig", "AdaResult", "PRESETS", "ada", "preset_config", "vfh"]
