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


def check_epsilon(epsilon: float | None) -> None:
    """Raise ValueError unless epsilon is None or a finite number above zero."""
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number above zero, got {epsilon!r}")


@dataclass(frozen=True)
class GammaState:
    """Multipliers pinned to ladder rungs.

    rungs[i, r-1] is customer i's multiplier on rung r: sorted_costs[i, r-1]
    + epsilon capped at cp[i] for rungs 1..n, and cp[i] on rung n+1.
    interval_index[i] is the rung customer i sits on; gamma and at_ceiling
    are read off the table, so every multiplier lies at or below cp and
    climbing a rung never lowers it.
    """

    interval_index: np.ndarray
    rungs: np.ndarray

    @property
    def gamma(self) -> np.ndarray:
        return self.rungs[np.arange(self.rungs.shape[0]), self.interval_index - 1]

    @property
    def at_ceiling(self) -> np.ndarray:
        return self.gamma == self.rungs[:, -1]


def place_gamma(ladder: CostLadder, gamma0, epsilon: float | None = None) -> GammaState:
    """Put a raw multiplier vector on the rung it lies in.

    A component at or below the cheapest cost takes rung 1; one above the
    k-th cheapest cost but not the next takes rung k, just above that cost;
    one at or above cp takes rung n+1, where the dual provably plateaus.
    epsilon, None or a finite number above zero, is the rung offset; None
    derives it from the ladder (see default_epsilon). gamma0 must hold one
    number per customer, none of them NaN.
    """
    check_epsilon(epsilon)
    if epsilon is None:
        epsilon = default_epsilon(ladder)
    costs, cp = ladder.sorted_costs, ladder.cp
    m, n = costs.shape
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (m,):
        raise ValueError(f"gamma0 must have shape ({m},), got {gamma0.shape}")
    if np.isnan(gamma0).any():
        raise ValueError("gamma0 must not contain NaN")
    rungs = np.column_stack([np.minimum(costs + epsilon, cp[:, None]), cp])
    # Per row, the count of costs below g is searchsorted(row, g, "left").
    k = (costs < gamma0[:, None]).sum(axis=1)
    rung = np.where(gamma0 >= cp, n + 1, np.maximum(k, 1))
    return GammaState(interval_index=rung, rungs=rungs)


def ascend(state: GammaState) -> GammaState:
    """Move every multiplier up one rung; rung n+1 is the top."""
    top = state.rungs.shape[1]
    return replace(state, interval_index=np.minimum(state.interval_index + 1, top))


def solve_slr(
    inst: Instance,
    gamma,
    node_limit: int | None = None,
    time_limit: float | None = None,
    resume: ExactResult | None = None,
) -> ExactResult:
    """Optimize the relaxed subproblem at multipliers gamma via the exact engine.

    The result's solution is the empty set, valued sum(gamma) with every
    customer UNASSIGNED, or a non-empty set that serves everyone at its
    splpo price. resume, an earlier optimal result of the same instance that
    opened nothing at a sum(gamma) no larger than this one, continues that
    search instead of starting again (see branch_and_bound). No assignment
    is fixed in advance: with preference-forced service, a pair whose cost
    exceeds gamma[i] can still be the optimum's, so reduced-cost pre-fixing
    from plain UFL would be unsafe here.
    """
    spec = ProblemSpec.slr(inst, gamma)
    return branch_and_bound(spec, node_limit=node_limit, time_limit=time_limit, resume=resume)


@dataclass(frozen=True)
class DaConfig:
    """Dual-ascent settings.

    max_iter None means run until a subproblem opens something. epsilon, the
    rung offset, is None or a finite number above zero; None derives it from
    the ladder (half the smallest positive cost gap). node_limit applies to
    each subproblem solve; each step resumes the previous step's search, so
    it counts only the nodes a step newly expands. time_limit, in seconds,
    is one budget for the whole driver: its deadline is fixed when the
    driver is built, and each step gets the time left. A negative or NaN
    limit raises ValueError.
    """

    epsilon: float | None = None
    max_iter: int | None = None
    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        check_epsilon(self.epsilon)
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
    step hits an engine limit, "ceiling" when every multiplier equals its cp
    and the subproblem still opens nothing, and "iter_limit" until then.
    last is the latest step's engine result and best_lower_bound the largest
    lower bound any step proved. A step only follows a step whose subproblem
    opened nothing, and gamma never falls, so every step after the first
    resumes the previous search; a climb that leaves sum(gamma) where it was
    (tied costs, or rungs capped at cp) resumes without a new node.
    """

    def __init__(self, inst: Instance, gamma0, cfg: DaConfig = DaConfig()):
        self.inst = inst
        self.cfg = cfg
        self.state = place_gamma(cost_ladder(inst), gamma0, cfg.epsilon)
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
            self.state.gamma,
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
        elif self.state.at_ceiling.all():
            self.done, self.status = True, "ceiling"
        else:
            self.state = ascend(self.state)
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
    "check_epsilon",
    "dual_ascent",
    "place_gamma",
    "solve_slr",
]
