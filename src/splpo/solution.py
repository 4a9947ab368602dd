"""Solutions, feasibility checks, and greedy upper-bound heuristics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance

UNASSIGNED = -1


@dataclass(frozen=True)
class Solution:
    """An open-facility set plus a customer assignment.

    assign[i] is the 0-based facility serving customer i, or UNASSIGNED.
    objective is the full cost: service costs of assigned customers plus
    opening costs of every facility in open_facilities.
    """

    open_facilities: frozenset
    assign: np.ndarray
    objective: float
    provenance: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Violation:
    kind: str  # "assignment", "open_link", or "preference"
    customer: int | None
    facility: int | None
    message: str


def open_mask(inst: Instance, open_facilities) -> np.ndarray:
    """Boolean mask over the sites, true at each id in open_facilities."""
    mask = np.zeros(inst.n, dtype=bool)
    mask[list(open_facilities)] = True
    return mask


def price(inst: Instance, rows: np.ndarray, assign: np.ndarray, mask: np.ndarray) -> float:
    """Value of a splpo solution: assign[k] serves customer rows[k], the mask is open.

    Every splpo value the package reports is this one sum, so an open set
    has one price whichever algorithm found it.
    """
    return float(inst.c[rows, assign].sum() + inst.f[mask].sum())


def assign_most_preferred(inst: Instance, open_facilities) -> np.ndarray:
    """Assign every customer to its top-ranked member of the open set.

    With a full strict ranking per customer this choice is unique, and it is
    the only assignment compatible with the preference constraints once the
    open set is fixed. The best rank over the open set names it, as in the
    exact engine.
    """
    mask = open_mask(inst, open_facilities)
    if not mask.any():
        raise ValueError("open set is empty")
    rank = np.where(mask, inst.p, inst.n + 1).min(axis=1)
    return inst.facility_of_rank[np.arange(inst.m), rank - 1]


def objective(inst: Instance, sol: Solution) -> float:
    """Service cost of assigned customers plus opening cost of open facilities."""
    assign = np.asarray(sol.assign)
    rows = np.flatnonzero(assign != UNASSIGNED)
    closed = rows[~np.isin(assign[rows], list(sol.open_facilities))]
    if closed.size:
        i = int(closed[0])
        raise ValueError(f"customer {i} assigned to closed facility {assign[i]}")
    return price(inst, rows, assign[rows], open_mask(inst, sol.open_facilities))


def check_feasible(inst: Instance, sol: Solution) -> list[Violation]:
    """List every constraint violation; an empty list means feasible.

    Checks, in indicator form: every customer is assigned, assignments point
    at open facilities, and no customer bypasses an open facility it prefers
    over its server; preference violations come by open facility, then customer.
    """
    assign = np.asarray(sol.assign)
    open_ids = sorted(sol.open_facilities)
    linked = (assign != UNASSIGNED) & np.isin(assign, open_ids)
    violations = []
    for i in np.flatnonzero(~linked).tolist():
        j = int(assign[i])
        if j == UNASSIGNED:
            violations.append(Violation("assignment", i, None, f"customer {i} is not assigned"))
        else:
            violations.append(
                Violation("open_link", i, j, f"customer {i} assigned to closed facility {j}")
            )
    # covered[k, i]: customer i's server is open and ranked no worse than open_ids[k].
    covered = np.zeros((len(open_ids), inst.m), dtype=bool)
    served = np.flatnonzero(linked)
    if served.size:  # p is indexed for linked customers only: an id of no site raises only then
        ranks = inst.p[served]
        covered[:, served] = (ranks[np.arange(served.size), assign[served]][:, None]
                              <= ranks[:, open_ids]).T
    for k, i in np.argwhere(~covered).tolist():
        j = open_ids[k]
        message = f"customer {i} bypasses open facility {j} it weakly prefers"
        violations.append(Violation("preference", i, j, message))
    return violations


def solution_to_json(sol: Solution) -> str:
    """Serialize with 1-based facility ids; unassigned customers become null."""
    doc = {
        "open": [j + 1 for j in sorted(sol.open_facilities)],
        "assign": [int(j) + 1 if j != UNASSIGNED else None for j in sol.assign],
        "objective": sol.objective,
        "provenance": sol.provenance,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _site_from_json(value, key: str, position: int) -> int:
    """A 1-based facility id read from disk, as a 0-based index."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{key}[{position}]: facility ids are integers >= 1, got {value!r}")
    return value - 1


def _objective_from_json(doc: dict) -> float:
    """The objective read from disk: a JSON number that is finite as a float."""
    value = doc.get("objective")
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer literal too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"objective: a finite number is required, got {value!r}")
    return number


def solution_from_json(text: str) -> Solution:
    """Read solution_to_json's format; ValueError for a facility id below 1 or
    not an integer, and for an objective that is missing or not a finite number."""
    doc = json.loads(text)
    assign = np.array(
        [UNASSIGNED if j is None else _site_from_json(j, "assign", i)
         for i, j in enumerate(doc["assign"])],
        dtype=np.int64,
    )
    return Solution(
        open_facilities=frozenset(_site_from_json(j, "open", k) for k, j in enumerate(doc["open"])),
        assign=assign,
        objective=_objective_from_json(doc),
        provenance=doc.get("provenance", {}),
    )


# ---------------------------------------------------------------------------
# Greedy upper-bound heuristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreedyRound:
    """One accepted assignment during the greedy sweep."""

    facility: int  # facility selected this round
    service_cost: float  # sum of service costs of the accepted assignment
    objective: float  # full objective, opening costs over facilities in use
    used: tuple  # facilities actually serving someone


def _greedy_sweep(inst: Instance, early_stop: bool) -> tuple[Solution, list[GreedyRound]]:
    """The sweep behind hc and hs: one whole-array pass over every site per round.

    Facility-major copies make each site's column one contiguous row. A round
    carries every customer's current cost and rank; row j of ``cost`` is the
    assignment if j were added (the customers preferring j move to it), and
    its pairwise row sum is j's total service cost, the same float a 1-D sum
    of that assignment gives. Taken sites are masked to inf, so ``argmin``
    picks the lowest-index minimum among the rest. The round's record reuses
    that row sum: its objective adds the opening costs of the sites in use,
    as ``price`` does.
    """
    m, n, f = inst.m, inst.n, inst.f
    c_t = np.ascontiguousarray(inst.c.T)
    p_t = np.ascontiguousarray(inst.p.T)

    def record(j: int, service: np.float64, assign: np.ndarray) -> GreedyRound:
        used = np.bincount(assign, minlength=n) > 0
        return GreedyRound(j, float(service), float(service + f[used].sum()),
                           tuple(used.nonzero()[0].tolist()))

    j0 = int(np.argmin(inst.c.sum(axis=0)))  # ties resolved to the lowest index
    cur_c, cur_p = c_t[j0], p_t[j0]
    assign = np.full(m, j0, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    taken[j0] = True
    trace = [record(j0, cur_c.sum(), assign)]
    best, best_assign = trace[0], assign

    for _ in range(n - 1):
        prefer = p_t < cur_p
        cost = np.where(prefer, c_t, cur_c)
        tcs = cost.sum(axis=1)
        tcs[taken] = np.inf
        k = int(tcs.argmin())
        if taken[k]:  # every untaken total overflowed to inf too
            k = int(np.argmin(taken))
        taken[k] = True
        assign = np.where(prefer[k], k, assign)
        cur_c, cur_p = cost[k], np.minimum(p_t[k], cur_p)
        trace.append(record(k, tcs[k], assign))
        if trace[-1].objective < best.objective:
            best, best_assign = trace[-1], assign
        if early_stop and trace[-1].service_cost >= trace[-2].service_cost:
            break

    # Customers sit at their most preferred selected facility: the forced assignment.
    sol = Solution(
        open_facilities=frozenset(best.used),
        assign=best_assign,
        objective=best.objective,
        provenance={"algorithm": "hs" if early_stop else "hc"},
    )
    return sol, trace


def heuristic_hc(inst: Instance) -> tuple[Solution, list[GreedyRound]]:
    """Full greedy sweep: seed with the cheapest-total facility, then keep
    adding the facility whose preference-aware reassignment has the lowest
    total service cost until none remain. The returned solution is the
    best full objective among all accepted assignments.

    Each round is one whole-array pass over every site (see _greedy_sweep),
    so a call costs n - 1 such passes over an (n, m) array.
    """
    return _greedy_sweep(inst, early_stop=False)


def heuristic_hs(inst: Instance) -> tuple[Solution, list[GreedyRound]]:
    """Greedy sweep that stops as soon as the round's best service cost
    fails to improve on the previous one (opening costs excluded from the
    stopping comparison). Round 1 is compared with the seed round's recorded
    service cost, so a tie with the seed stops the sweep.
    """
    return _greedy_sweep(inst, early_stop=True)


__all__ = [
    "GreedyRound",
    "Solution",
    "UNASSIGNED",
    "Violation",
    "assign_most_preferred",
    "check_feasible",
    "heuristic_hc",
    "heuristic_hs",
    "objective",
    "solution_from_json",
    "solution_to_json",
]
