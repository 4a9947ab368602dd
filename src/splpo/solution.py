"""Solutions, feasibility checks, and greedy upper-bound heuristics."""

from __future__ import annotations

import json

import numpy as np

from .instance import Instance, Record, check_sites

UNASSIGNED = -1


class Solution(Record):
    """An open-facility set plus a customer assignment.

    assign[i] is the 0-based facility serving customer i, or UNASSIGNED.
    objective is the full cost: service costs of assigned customers plus
    opening costs of every facility in open_facilities. provenance, a new
    empty dict when not given, is left out of ==.
    """

    __slots__ = ("open_facilities", "assign", "objective", "provenance")

    def __init__(self, open_facilities: frozenset, assign: np.ndarray, objective: float,
                 provenance: dict | None = None):
        self.open_facilities = open_facilities
        self.assign = assign
        self.objective = objective
        self.provenance = {} if provenance is None else provenance

    def _key(self) -> tuple:
        return self.open_facilities, self.assign, self.objective


class Violation(Record):
    __slots__ = ("kind", "customer", "facility", "message")

    def __init__(self, kind: str, customer: int | None, facility: int | None, message: str):
        self.kind = kind  # "assignment", "open_link", or "preference"
        self.customer = customer
        self.facility = facility
        self.message = message


def open_mask(inst: Instance, open_facilities) -> np.ndarray:
    """Boolean mask over the sites, true at each id in open_facilities.

    ValueError for an id that names no site: numpy would wrap a negative one
    round to another site.
    """
    mask = np.zeros(inst.n, dtype=bool)
    mask[check_sites("open facilities", open_facilities, inst.n)] = True
    return mask


def _assignment(inst: Instance, sol: Solution) -> np.ndarray:
    """sol.assign as an array; ValueError naming its dtype, shape or length
    unless it holds one integer entry per customer."""
    assign = np.asarray(sol.assign)
    if assign.dtype.kind not in "iu":
        raise ValueError(f"assign must hold integer facility ids, got dtype {assign.dtype}")
    if assign.ndim != 1:
        raise ValueError(f"assign must be 1-D, got shape {assign.shape}")
    if assign.size != inst.m:
        raise ValueError(f"assign has {assign.size} entries for {inst.m} customers")
    return assign


def _linked(mask: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Whether each server in assign is a site open in mask; UNASSIGNED and
    every other id of no site are not."""
    linked = (assign >= 0) & (assign < mask.size)
    linked[linked] = mask[assign[linked]]
    return linked


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
    open set is fixed. The best rank over the open set's rows of inst.pT
    names it, as in the exact engine.
    """
    mask = open_mask(inst, open_facilities)
    if not mask.any():
        raise ValueError("open set is empty")
    rank = inst.pT[mask].min(axis=0)
    return inst.facility_of_rank[np.arange(inst.m), rank - 1]


def objective(inst: Instance, sol: Solution) -> float:
    """Service cost of assigned customers plus opening cost of open facilities.

    ValueError for an assign that is not one integer per customer, an open
    id that names no site, or a customer assigned to a facility that is not
    open.
    """
    assign = _assignment(inst, sol)
    mask = open_mask(inst, sol.open_facilities)
    rows = np.flatnonzero(assign != UNASSIGNED)
    closed = rows[~_linked(mask, assign[rows])]
    if closed.size:
        i = int(closed[0])
        raise ValueError(f"customer {i} assigned to closed facility {assign[i]}")
    return price(inst, rows, assign[rows], mask)


def check_feasible(inst: Instance, sol: Solution) -> list[Violation]:
    """List every constraint violation; an empty list means feasible.

    Checks, in indicator form: every customer is assigned, assignments point
    at open facilities, and no customer bypasses an open facility it prefers
    over its server; preference violations come by open facility, then customer.
    An assignment to an id of no site is an open_link violation, but an open
    id that names no site, or an assign that is not one integer per
    customer, raises ValueError.
    """
    assign = _assignment(inst, sol)
    linked = _linked(open_mask(inst, sol.open_facilities), assign)
    open_ids = sorted(sol.open_facilities)
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
    if served.size:
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


# ---------------------------------------------------------------------------
# Greedy upper-bound heuristics
# ---------------------------------------------------------------------------


def _greedy_sweep(inst: Instance) -> dict:
    """The sweep behind hc and hs: one whole-array pass over every site per round.

    It reads the instance's facility-major layout (``inst.cT``, ``inst.pT``),
    in which each site's column is one contiguous row. A round carries every
    customer's current cost and rank; row j of ``cost`` is the assignment if
    j were added (the customers preferring j move to it), and its pairwise
    row sum is j's total service cost, the same float a 1-D sum of that
    assignment gives. Taken sites are masked to inf, so ``argmin``
    picks the lowest-index minimum among the rest. A round's objective adds
    that row sum to the opening costs of the sites in use, as ``price`` does.
    The sweep keeps only its running best (objective, assignment, sites in
    use) and counts its rounds, the seed round included.

    One whole pass answers both heuristics, by name: "hc" is the running
    best over every round, and "hs" the same running best frozen at the
    first round whose service cost fails to improve on the last (or at the
    end), each as (open set, assignment, objective, rounds).
    """
    m, n, f, c_t, p_t = inst.m, inst.n, inst.f, inst.cT, inst.pT  # locals for the round loop

    def used_by(assign: np.ndarray) -> np.ndarray:
        used = np.zeros(n, dtype=bool)
        used[assign] = True
        return used

    def result(rounds: int) -> tuple:
        return frozenset(best_used.nonzero()[0].tolist()), best_assign, best, rounds

    j0 = int(np.argmin(inst.c.sum(axis=0)))  # ties resolved to the lowest index
    cur_c, cur_p = c_t[j0], p_t[j0]
    assign = np.full(m, j0, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    taken[j0] = True
    service = cur_c.sum()
    best_used = used_by(assign)
    best, best_assign = float(service + np.add.reduce(f[best_used])), assign
    found = {}

    for rounds in range(2, n + 1):  # each round, the seed's included, takes one site
        prefer = p_t < cur_p
        cost = np.where(prefer, c_t, cur_c)
        tcs = np.add.reduce(cost, axis=1)
        tcs[taken] = np.inf
        k = int(tcs.argmin())
        if taken[k]:  # every untaken total overflowed to inf too
            k = int(np.argmin(taken))
        taken[k] = True
        assign = np.where(prefer[k], k, assign)
        cur_c, cur_p = cost[k], np.minimum(p_t[k], cur_p)
        used = used_by(assign)
        value = float(tcs[k] + np.add.reduce(f[used]))
        if value < best:
            best, best_assign, best_used = value, assign, used
        if "hs" not in found and tcs[k] >= service:
            found["hs"] = result(rounds)
        service = tcs[k]

    found["hc"] = result(n)
    found.setdefault("hs", found["hc"])
    return found


def _greedy(inst: Instance, algorithm: str) -> Solution:
    """A new Solution for hc or hs, read from the instance's one greedy sweep.

    The sweep's answers stay in the instance's ``__dict__`` with its other
    derived data: the first call for either heuristic runs the whole pass,
    which answers both, and every later call reads it. Each call gets its
    own provenance dict and copy of the assignment, so no caller sees
    another's changes. Threads that both find the sweep missing each run it
    and store equal results.
    """
    sweep = inst.__dict__.get("_greedy_sweep")
    if sweep is None:
        sweep = inst.__dict__["_greedy_sweep"] = _greedy_sweep(inst)
    open_facilities, assign, objective, rounds = sweep[algorithm]
    # Customers sit at their most preferred selected facility: the forced assignment.
    return Solution(open_facilities, assign.copy(), objective,
                    {"algorithm": algorithm, "rounds": rounds})


def heuristic_hc(inst: Instance) -> Solution:
    """Full greedy sweep: seed with the cheapest-total facility, then keep
    adding the facility whose preference-aware reassignment has the lowest
    total service cost until none remain. The returned solution is the
    best full objective among all accepted assignments; its provenance
    holds the number of rounds, the seed round included.

    Each round is one whole-array pass over every site (see _greedy_sweep),
    so the sweep costs n - 1 such passes over an (n, m) array. It runs once
    per instance and answers hs too; later calls copy its result.
    """
    return _greedy(inst, "hc")


def heuristic_hs(inst: Instance) -> Solution:
    """Greedy sweep that stops as soon as the round's best service cost
    fails to improve on the previous one (opening costs excluded from the
    stopping comparison). Round 1 is compared with the seed round's
    service cost, so a tie with the seed stops the sweep. Its rounds are
    the first rounds of hc's sweep, so it is read from that one pass, which
    the first of hc and hs to be asked for runs in full.
    """
    return _greedy(inst, "hs")


__all__ = [
    "Solution",
    "UNASSIGNED",
    "Violation",
    "assign_most_preferred",
    "check_feasible",
    "heuristic_hc",
    "heuristic_hs",
    "objective",
    "solution_to_json",
]
