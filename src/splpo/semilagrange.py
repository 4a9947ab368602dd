"""Semi-Lagrangean relaxation and its dual ascent.

Only the "serve everyone at least once" side of the assignment equality is
relaxed, with nonnegative multipliers gamma. The relaxed subproblems keep the
preference constraints, so they stay combinatorial and are delegated to the
exact engine. Because of those constraints any non-empty open set serves
every customer, so a subproblem serves everyone or no one: its optimum is the
empty set, valued sum(gamma), or the splpo optimum. The dual is piecewise
constant in each gamma component between consecutive sorted service costs,
which reduces ascent to moving every multiplier one rung up its customer's
cost ladder per step until the subproblem opens something; multipliers never
need to exceed cp_i = max_j (c[i, j] + f[j]).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .exact import ExactResult, ProblemSpec, branch_and_bound, check_limits
from .instance import CostLadder, Instance, cost_ladder, default_epsilon


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
    exactly to cp, where the dual provably plateaus. gamma0 must hold one
    number per customer, none of them NaN.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    costs, cp = ladder.sorted_costs, ladder.cp
    m, n = costs.shape
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (m,):
        raise ValueError(f"gamma0 must have shape ({m},), got {gamma0.shape}")
    if np.isnan(gamma0).any():
        raise ValueError("gamma0 must not contain NaN")
    # Per row, the count of costs below g is searchsorted(row, g, "left").
    k = (costs < gamma0[:, None]).sum(axis=1)
    rung = np.maximum(k, 1)
    gamma = costs[np.arange(m), rung - 1] + epsilon
    top = k == n
    gamma[top] = np.minimum(gamma[top], cp[top])
    pinned = top & (gamma0 >= cp)
    gamma[pinned], rung[pinned] = cp[pinned], n + 1
    return GammaState(gamma=gamma, interval_index=rung, epsilon=epsilon, ladder=ladder)


def ascend(state: GammaState) -> GammaState:
    """Move every multiplier up one rung (capped at cp)."""
    costs, cp = state.ladder.sorted_costs, state.ladder.cp
    m, n = costs.shape
    rung = np.minimum(state.interval_index + 1, n + 1)
    below = np.minimum(costs[np.arange(m), np.minimum(rung, n) - 1] + state.epsilon, cp)
    gamma = np.where(rung > n, cp, below)
    return replace(state, gamma=gamma, interval_index=rung)


def solve_slr(
    inst: Instance,
    state: GammaState,
    node_limit: int | None = None,
    time_limit: float | None = None,
    resume: ExactResult | None = None,
) -> ExactResult:
    """Optimize the relaxed subproblem at the state's gamma via the exact engine.

    The result's solution is the empty set, valued sum(gamma) with every
    customer UNASSIGNED, or a non-empty set that serves everyone at its
    splpo price. resume, an earlier optimal result of the same instance that
    opened nothing at a sum(gamma) no larger than this one, continues that
    search instead of starting again (see branch_and_bound). No assignment
    is fixed in advance: with preference-forced service, a pair whose cost
    exceeds gamma[i] can still be the optimum's, so reduced-cost pre-fixing
    from plain UFL would be unsafe here.
    """
    spec = ProblemSpec.slr(inst, state.gamma)
    return branch_and_bound(spec, node_limit=node_limit, time_limit=time_limit, resume=resume)


@dataclass(frozen=True)
class DaConfig:
    """Dual-ascent settings.

    max_iter None means run until a subproblem opens something. epsilon None
    derives the rung offset from the ladder (half the smallest positive cost
    gap). node_limit applies to each subproblem solve; each step resumes the
    previous step's search, so it counts only the nodes a step newly
    expands. time_limit, in seconds, is one budget for the whole driver: its
    deadline is fixed when the driver is built, and each step gets the time
    left. A negative or NaN limit raises ValueError.
    """

    epsilon: float | None = None
    max_iter: int | None = None
    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        check_limits(self.node_limit, self.time_limit)


@dataclass(frozen=True)
class DaTraceRow:
    iteration: int
    value: float
    served: int  # m when the step opened something, else 0
    at_ceiling: int


class DualAscent:
    """Stepwise driver: one step = solve the subproblem at the current gamma,
    record it, and climb every multiplier one rung if it opened nothing.

    status is "optimal" once a step opens something, "incomplete" once a
    step hits an engine limit, "ceiling" when every multiplier sits at cp
    and the subproblem still opens nothing, and "iter_limit" until then.
    last is the latest step's engine result and best_lower_bound the largest
    lower bound any step proved. A step only follows a step whose subproblem
    opened nothing, and gamma only grows, so every step after the first
    resumes the previous search.
    """

    def __init__(self, inst: Instance, gamma0, cfg: DaConfig = DaConfig()):
        self.inst = inst
        self.cfg = cfg
        ladder = cost_ladder(inst)
        eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(ladder)
        self.state = place_gamma(ladder, gamma0, eps)
        self.deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
        self.iterations = 0
        self.trace: list[DaTraceRow] = []
        self.last: ExactResult | None = None
        self.best_lower_bound = -math.inf
        self.done = False
        self.status = "iter_limit"

    def step(self) -> ExactResult:
        """Run one iteration; sets done/status when no further progress is possible."""
        time_left = None if self.deadline is None else max(0.0, self.deadline - time.monotonic())
        res = solve_slr(
            self.inst,
            self.state,
            node_limit=self.cfg.node_limit,
            time_limit=time_left,
            resume=self.last,
        )
        self.last = res
        self.best_lower_bound = max(self.best_lower_bound, res.lower_bound)
        opened = bool(res.solution.open_facilities)
        self.trace.append(
            DaTraceRow(
                iteration=self.iterations,
                value=res.value,
                served=self.inst.m if opened else 0,
                at_ceiling=int(self.state.at_ceiling.sum()),
            )
        )
        self.iterations += 1
        if res.status != "optimal":
            self.done, self.status = True, "incomplete"
        elif opened:
            self.done, self.status = True, "optimal"
        else:
            new_state = ascend(self.state)
            if np.array_equal(new_state.gamma, self.state.gamma):
                # Every multiplier is already pinned at cp; the dual value
                # cannot move, so stop instead of looping.
                self.done, self.status = True, "ceiling"
            else:
                self.state = new_state
        return res


def dual_ascent(inst: Instance, gamma0, cfg: DaConfig = DaConfig()) -> DualAscent:
    """Iterate ascent steps until optimality, a limit, or an engine timeout.

    Returns the driver. When its status is "optimal" the final value equals
    the optimum of the original problem (the relaxation closes the duality
    gap) and last.solution is feasible for it.
    """
    driver = DualAscent(inst, gamma0, cfg)
    while not driver.done:
        if cfg.max_iter is not None and driver.iterations >= cfg.max_iter:
            break
        driver.step()
    return driver


__all__ = [
    "DaConfig",
    "DaTraceRow",
    "DualAscent",
    "GammaState",
    "ascend",
    "dual_ascent",
    "place_gamma",
    "solve_slr",
]
