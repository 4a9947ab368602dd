"""Semi-Lagrangean relaxation and its dual ascent.

Only the "serve everyone at least once" side of the assignment equality is
relaxed, with nonnegative multipliers gamma. The relaxed subproblems keep the
preference constraints, so they stay combinatorial and are delegated to the
exact engine. The dual is piecewise constant in each gamma component between
consecutive sorted service costs, which reduces ascent to jumping rung by
rung up each customer's cost ladder until everyone is served; multipliers
never need to exceed cp_i = max_j (c[i, j] + f[j]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exact import ExactResult, ProblemSpec, branch_and_bound
from .instance import CostLadder, Instance, cost_ladder, default_epsilon
from .solution import UNASSIGNED, Solution, open_mask, price


@dataclass(frozen=True)
class GammaState:
    """Multipliers pinned to ladder rungs.

    interval_index[i] is the rung customer i currently sits on: gamma[i] is
    sorted_costs[i, rung-1] + epsilon for rungs 1..n, and cp[i] at rung n+1.
    """

    gamma: np.ndarray
    interval_index: np.ndarray
    epsilon: float
    ladder: CostLadder

    @property
    def at_ceiling(self) -> np.ndarray:
        return self.gamma >= self.ladder.cp - 1e-12


def place_gamma(ladder: CostLadder, gamma0, epsilon: float) -> GammaState:
    """Snap a raw multiplier vector onto ladder-rung representatives.

    Components at or below the cheapest cost move just above it; components
    inside an interval between consecutive sorted costs snap down to the
    interval's lower cost plus epsilon. Above the top cost, components below
    cp go to min(top cost + epsilon, cp), and anything at or above cp pins
    exactly to cp, where the dual provably plateaus.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    gamma0 = np.asarray(gamma0, dtype=float)
    m, n = ladder.sorted_costs.shape
    gamma = np.empty(m)
    rung = np.empty(m, dtype=np.int64)
    for i in range(m):
        row = ladder.sorted_costs[i]
        g = gamma0[i]
        k = int(np.searchsorted(row, g, side="left"))
        if k == 0:
            gamma[i], rung[i] = row[0] + epsilon, 1
        elif k == n:
            if g < ladder.cp[i]:
                gamma[i], rung[i] = min(row[n - 1] + epsilon, ladder.cp[i]), n
            else:
                gamma[i], rung[i] = ladder.cp[i], n + 1
        else:
            gamma[i], rung[i] = row[k - 1] + epsilon, k
    return GammaState(gamma=gamma, interval_index=rung, epsilon=epsilon, ladder=ladder)


def ascend(state: GammaState, s: np.ndarray) -> GammaState:
    """Move every unserved customer's multiplier up one rung (capped at cp)."""
    s = np.asarray(s)
    gamma = state.gamma.copy()
    rung = state.interval_index.copy()
    ladder = state.ladder
    n = ladder.sorted_costs.shape[1]
    for i in np.flatnonzero(s != 0):
        rung[i] = min(rung[i] + 1, n + 1)
        if rung[i] > n:
            gamma[i] = ladder.cp[i]
        else:
            gamma[i] = min(ladder.sorted_costs[i, rung[i] - 1] + state.epsilon, ladder.cp[i])
    return replace(state, gamma=gamma, interval_index=rung)


@dataclass(frozen=True)
class SlrSolution:
    """Relaxed-subproblem optimum at fixed gamma.

    value is sum(gamma) for the empty open set and the splpo value of any
    other. served marks customers with an assignment; open facilities force
    service for everyone, so served is all-true whenever open_facilities is
    non-empty. search is the engine result, which a later solve can resume.
    """

    value: float
    open_facilities: frozenset
    assign: np.ndarray
    served: np.ndarray
    status: str
    lower_bound: float
    nodes: int
    search: ExactResult = field(repr=False, compare=False)

    @property
    def all_served(self) -> bool:
        return bool(self.served.all())


def solve_slr(
    inst: Instance,
    state: GammaState,
    node_limit: int | None = None,
    time_limit: float | None = None,
    resume: SlrSolution | None = None,
) -> SlrSolution:
    """Optimize the relaxed subproblem at the state's gamma via the exact engine.

    resume, an earlier optimal solution of the same instance that opened
    nothing at a sum(gamma) no larger than this one, continues that search
    instead of starting again (see branch_and_bound). No assignment is fixed
    in advance: with preference-forced service, a pair whose cost exceeds
    gamma[i] can still be the optimum's, so reduced-cost pre-fixing from
    plain UFL would be unsafe here.
    """
    spec = ProblemSpec.slr(inst, state.gamma)
    res = branch_and_bound(
        spec,
        node_limit=node_limit,
        time_limit=time_limit,
        resume=None if resume is None else resume.search,
    )
    sol = res.solution
    if sol is None:
        assign = np.full(inst.m, UNASSIGNED, dtype=np.int64)
        open_set = frozenset()
    else:
        assign = sol.assign
        open_set = sol.open_facilities
    return SlrSolution(
        value=res.value,
        open_facilities=open_set,
        assign=assign,
        served=assign != UNASSIGNED,
        status=res.status,
        lower_bound=res.lower_bound,
        nodes=res.nodes,
        search=res,
    )


def slr_subgradient(slr: SlrSolution) -> np.ndarray:
    """One per unserved customer, zero elsewhere; zero overall certifies optimality."""
    return (~slr.served).astype(np.int64)


@dataclass(frozen=True)
class DaConfig:
    """Dual-ascent settings.

    max_iter None means run until the subgradient vanishes. epsilon None
    derives the rung offset from the ladder (half the smallest positive cost
    gap). node_limit and time_limit apply to each subproblem solve. Each step
    resumes the previous step's search, so node_limit counts only the nodes
    a step newly expands.
    """

    epsilon: float | None = None
    max_iter: int | None = None
    node_limit: int | None = None
    time_limit: float | None = None


@dataclass(frozen=True)
class DaTraceRow:
    iteration: int
    value: float
    served: int
    at_ceiling: int


@dataclass
class DAResult:
    state: GammaState
    best_value: float
    best_lower_bound: float
    status: str  # "optimal", "iter_limit", "incomplete", or "ceiling"
    iterations: int
    last: SlrSolution | None
    trace: list = field(default_factory=list)


class DualAscent:
    """Stepwise driver: one step = solve the subproblem at the current gamma,
    record it, and climb the unserved customers one rung if any remain.

    A step only follows a step whose subproblem opened nothing, and gamma
    only grows, so every step after the first resumes the previous search.
    """

    def __init__(self, inst: Instance, gamma0, cfg: DaConfig = DaConfig()):
        self.inst = inst
        self.cfg = cfg
        ladder = cost_ladder(inst)
        eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(ladder)
        self.state = place_gamma(ladder, gamma0, eps)
        self.iterations = 0
        self.trace: list[DaTraceRow] = []
        self.last: SlrSolution | None = None
        self.best_lower_bound = -math.inf
        self.done = False
        self.status = "iter_limit"

    def step(self) -> SlrSolution:
        """Run one iteration; sets done/status when no further progress is possible."""
        slr = solve_slr(
            self.inst,
            self.state,
            node_limit=self.cfg.node_limit,
            time_limit=self.cfg.time_limit,
            resume=self.last,
        )
        self.last = slr
        self.best_lower_bound = max(self.best_lower_bound, slr.lower_bound)
        self.trace.append(
            DaTraceRow(
                iteration=self.iterations,
                value=slr.value,
                served=int(slr.served.sum()),
                at_ceiling=int(self.state.at_ceiling.sum()),
            )
        )
        self.iterations += 1
        if slr.status != "optimal":
            self.done = True
            self.status = "incomplete"
            return slr
        s = slr_subgradient(slr)
        if not s.any():
            self.done = True
            self.status = "optimal"
            return slr
        new_state = ascend(self.state, s)
        if np.array_equal(new_state.gamma, self.state.gamma):
            # Every unserved customer is already pinned at cp; the dual
            # value cannot move, so stop instead of looping.
            self.done = True
            self.status = "ceiling"
            return slr
        self.state = new_state
        return slr

    def result(self) -> DAResult:
        values = [row.value for row in self.trace]
        return DAResult(
            state=self.state,
            best_value=max(values) if values else -math.inf,
            best_lower_bound=self.best_lower_bound,
            status=self.status if self.done else "iter_limit",
            iterations=self.iterations,
            last=self.last,
            trace=list(self.trace),
        )


def dual_ascent(inst: Instance, gamma0, cfg: DaConfig = DaConfig()) -> DAResult:
    """Iterate ascent steps until optimality, a limit, or an engine timeout.

    When the run finishes with status "optimal" the final value equals the
    optimum of the original problem (the relaxation closes the duality gap)
    and the final subproblem solution is feasible for it.
    """
    driver = DualAscent(inst, gamma0, cfg)
    while not driver.done:
        if cfg.max_iter is not None and driver.iterations >= cfg.max_iter:
            break
        driver.step()
    return driver.result()


def feasible_solution_from(slr: SlrSolution, inst: Instance) -> Solution | None:
    """Repackage an all-served subproblem solution as a regular solution."""
    if not slr.all_served:
        return None
    mask = open_mask(inst, slr.open_facilities)
    return Solution(
        open_facilities=slr.open_facilities,
        assign=slr.assign.copy(),
        objective=price(inst, np.arange(inst.m), slr.assign, mask),
        provenance={"algorithm": "dual_ascent"},
    )


__all__ = [
    "DAResult",
    "DaConfig",
    "DaTraceRow",
    "DualAscent",
    "GammaState",
    "SlrSolution",
    "ascend",
    "dual_ascent",
    "feasible_solution_from",
    "place_gamma",
    "slr_subgradient",
    "solve_slr",
]
