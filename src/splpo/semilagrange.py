"""Semi-Lagrangean relaxation and its dual ascent.

Only the "serve everyone at least once" side of the assignment equality is
relaxed, with nonnegative multipliers gamma. The relaxed subproblems keep the
preference constraints, so they stay combinatorial and are delegated to the
exact engine. Because of those constraints any non-empty open set serves
every customer, so a subproblem serves everyone or no one: its optimum is the
empty set, valued sum(gamma), or the splpo optimum. The engine therefore
takes the multipliers as one threshold, their sum. The dual is piecewise
constant in each gamma component between consecutive sorted service costs,
which reduces ascent to moving every multiplier one rung up its customer's
cost ladder per step until the subproblem opens something; multipliers never
need to exceed cp_i = max_j (c[i, j] + f[j]). ``DualAscent`` holds the ladder
as a table of rungs and one rung index per customer, so gamma is read off the
table and a step adds one to every index.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .exact import ExactResult, ProblemSpec, branch_and_bound
from .instance import Instance, Record, check_count, check_limits


def solve_slr(
    inst: Instance,
    threshold: float,
    node_limit: int | None = None,
    time_limit: float | None = None,
    resume: ExactResult | None = None,
) -> ExactResult:
    """Optimize the relaxed subproblem at threshold sum(gamma) via the exact engine.

    The result's solution is the empty set, valued at the threshold with every
    customer UNASSIGNED, or a non-empty set that serves everyone at its
    splpo price. resume, an earlier optimal result of the same instance that
    opened nothing at a threshold no larger than this one, continues that
    search instead of starting again (see branch_and_bound). No assignment
    is fixed in advance: with preference-forced service, a pair whose cost
    exceeds gamma[i] can still be the optimum's, so reduced-cost pre-fixing
    from plain UFL would be unsafe here.
    """
    spec = ProblemSpec.slr(inst, threshold)
    return branch_and_bound(spec, node_limit=node_limit, time_limit=time_limit, resume=resume)


class DaTraceRow(Record):
    __slots__ = ("iteration", "value", "served", "at_ceiling")

    def __init__(self, iteration: int, value: float, served: int, at_ceiling: int):
        self.iteration = iteration
        self.value = value
        self.served = served  # m when the step opened something, else 0
        self.at_ceiling = at_ceiling


class DualAscent:
    """Stepwise driver: one step = solve the subproblem at threshold
    sum(gamma), record it, and climb every multiplier one rung if it opened
    nothing.

    rungs[i, r-1] is customer i's multiplier on rung r: its r-th cheapest
    service cost plus an offset, capped at cp[i], for r <= n, and cp[i] on
    rung n+1, where the dual provably plateaus. The offset is half the
    smallest positive gap between two sorted costs of one customer, so no
    rung reaches the customer's next larger cost; with no such gap it is
    1e-6 * (1 + the largest cost). rung[i] is the rung customer i
    sits on, so every multiplier lies at or below cp and a climb never lowers
    it. gamma0 places each customer: at or below its cheapest cost on rung 1,
    above its k-th cheapest cost but not the next on rung k, at or above cp
    on rung n+1. gamma0 must hold one number per customer, none of them NaN.

    node_limit, None or a nonnegative integer stored as an int, applies to
    each subproblem solve; each step resumes the previous step's search, so
    it counts only the nodes a step newly expands. time_limit, in seconds, is
    one budget for the whole driver: its deadline is fixed here, and each
    step gets the time left. A malformed limit raises ValueError naming it.
    The driver takes no step budget; dual_ascent and ada set one.

    status is "optimal" once a step opens something, "incomplete" once a
    step hits an engine limit, "ceiling" when every multiplier equals its cp
    and the subproblem still opens nothing (the optimum then equals sum(cp),
    and the empty set ties it), and "iter_limit" until then.
    last is the latest step's engine result and best_lower_bound the largest
    lower bound any step proved. A step only follows a step whose subproblem
    opened nothing, and gamma never falls, so every step after the first
    resumes the previous search; a climb that leaves sum(gamma) where it was
    (tied costs, or rungs capped at cp) resumes without a new node.
    """

    def __init__(self, inst: Instance, gamma0, node_limit: int | None = None,
                 time_limit: float | None = None):
        self.inst = inst
        self.node_limit = check_limits(node_limit, time_limit)
        gamma0 = np.asarray(gamma0, dtype=float)
        if gamma0.shape != (inst.m,):
            raise ValueError(f"gamma0 must have shape ({inst.m},), got {gamma0.shape}")
        if np.isnan(gamma0).any():
            raise ValueError("gamma0 must not contain NaN")
        costs = np.sort(inst.c, axis=1)
        cp = (inst.c + inst.f).max(axis=1)
        gaps = np.diff(costs, axis=1)
        gaps = gaps[gaps > 0]
        offset = float(gaps.min()) / 2.0 if gaps.size else 1e-6 * (1.0 + float(costs.max()))
        self.rungs = np.column_stack([np.minimum(costs + offset, cp[:, None]), cp])
        # Per row, the count of costs below g is searchsorted(row, g, "left").
        below = (costs < gamma0[:, None]).sum(axis=1)
        self.rung = np.where(gamma0 >= cp, inst.n + 1, np.maximum(below, 1))
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.trace: list[DaTraceRow] = []
        self.last: ExactResult | None = None
        self.best_lower_bound = -math.inf
        self.status = "iter_limit"

    @property
    def gamma(self) -> np.ndarray:
        return self.rungs[np.arange(self.inst.m), self.rung - 1]

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def done(self) -> bool:  # the status is final
        return self.status != "iter_limit"

    def step(self) -> ExactResult:
        """Run one iteration, and set a final status when no further progress
        is possible; a driver that is done raises ValueError."""
        if self.done:
            raise ValueError(f"the ascent is done (status {self.status!r}); it takes no more steps")
        time_left = None if self.deadline is None else max(0.0, self.deadline - time.monotonic())
        gamma = self.gamma
        res = solve_slr(
            self.inst,
            float(gamma.sum()),
            node_limit=self.node_limit,
            time_limit=time_left,
            resume=self.last,
        )
        self.last = res
        self.best_lower_bound = max(self.best_lower_bound, res.lower_bound)
        opened = bool(res.solution.open_facilities)
        at_ceiling = gamma == self.rungs[:, -1]
        self.trace.append(
            DaTraceRow(
                iteration=self.iterations,
                value=res.value,
                served=self.inst.m if opened else 0,
                at_ceiling=int(at_ceiling.sum()),
            )
        )
        if res.status != "optimal":
            self.status = "incomplete"
        elif opened:
            self.status = "optimal"
        elif at_ceiling.all():
            self.status = "ceiling"
        else:
            self.rung = np.minimum(self.rung + 1, self.inst.n + 1)
        return res


def dual_ascent(inst: Instance, gamma0, max_iter: int | None = None,
                node_limit: int | None = None, time_limit: float | None = None) -> DualAscent:
    """Iterate ascent steps until optimality, the ceiling, a limit, or an
    engine timeout.

    max_iter, None or a nonnegative integer, caps the steps; None means run
    until a subproblem opens something. node_limit and time_limit go to the
    driver (see DualAscent). A malformed setting raises ValueError naming it
    before any step.

    Returns the driver. When its status is "optimal" or "ceiling" the final
    value equals the optimum of the original problem (the relaxation closes
    the duality gap); at "optimal" last.solution is feasible for it.
    """
    if max_iter is not None:
        max_iter = check_count("max_iter", max_iter)
    driver = DualAscent(inst, gamma0, node_limit, time_limit)
    while not driver.done and (max_iter is None or driver.iterations < max_iter):
        driver.step()
    return driver


__all__ = [
    "DaTraceRow",
    "DualAscent",
    "dual_ascent",
    "solve_slr",
]
