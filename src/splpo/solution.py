"""Solutions, feasibility checks, and greedy upper-bound heuristics."""

from __future__ import annotations

import json
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


def assign_most_preferred(inst: Instance, open_facilities) -> np.ndarray:
    """Assign every customer to its top-ranked member of the open set.

    With a full strict ranking per customer this choice is unique, and it is
    the only assignment compatible with the preference constraints once the
    open set is fixed.
    """
    open_set = sorted(open_facilities)
    if not open_set:
        raise ValueError("open set is empty")
    cols = np.asarray(open_set)
    sub = inst.p[:, cols]
    return cols[np.argmin(sub, axis=1)]


def objective(inst: Instance, sol: Solution) -> float:
    """Service cost of assigned customers plus opening cost of open facilities."""
    total = 0.0
    for i, j in enumerate(sol.assign):
        if j == UNASSIGNED:
            continue
        if j not in sol.open_facilities:
            raise ValueError(f"customer {i} assigned to closed facility {j}")
        total += inst.c[i, j]
    total += sum(inst.f[j] for j in sorted(sol.open_facilities))
    return total


def check_feasible(inst: Instance, sol: Solution) -> list[Violation]:
    """List every constraint violation; an empty list means feasible.

    Checks, in indicator form: every customer is assigned, assignments point
    at open facilities, and no customer bypasses an open facility it prefers
    over its server.
    """
    violations = []
    open_set = sol.open_facilities
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


def solution_to_json(sol: Solution) -> str:
    """Serialize with 1-based facility ids; unassigned customers become null."""
    doc = {
        "open": [j + 1 for j in sorted(sol.open_facilities)],
        "assign": [int(j) + 1 if j != UNASSIGNED else None for j in sol.assign],
        "objective": sol.objective,
        "provenance": sol.provenance,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def solution_from_json(text: str) -> Solution:
    doc = json.loads(text)
    assign = np.array(
        [UNASSIGNED if j is None else int(j) - 1 for j in doc["assign"]], dtype=np.int64
    )
    return Solution(
        open_facilities=frozenset(j - 1 for j in doc["open"]),
        assign=assign,
        objective=float(doc["objective"]),
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


def _round_from_assign(inst: Instance, facility: int, assign: np.ndarray) -> GreedyRound:
    service = float(inst.c[np.arange(inst.m), assign].sum())
    used = tuple(sorted(set(assign.tolist())))
    full = service + float(sum(inst.f[j] for j in used))
    return GreedyRound(facility=facility, service_cost=service, objective=full, used=used)


def _greedy_sweep(inst: Instance, early_stop: bool) -> tuple[Solution, list[GreedyRound]]:
    m, n = inst.m, inst.n
    col_sums = inst.c.sum(axis=0)
    j0 = int(np.argmin(col_sums))  # ties resolved to the lowest index
    assign = np.full(m, j0, dtype=np.int64)
    trace = [_round_from_assign(inst, j0, assign)]
    remaining = np.delete(np.arange(n), j0)
    tc_prev = float(col_sums[j0])
    rows = np.arange(m)
    p_t = np.ascontiguousarray(inst.p.T)

    while remaining.size:
        # One row per remaining facility: the assignment if it were added.
        # Each row sums along the contiguous last axis, as the 1-D sum of a
        # single candidate would, so every tc is the same float.
        prefer = p_t[remaining] < inst.p[rows, assign]
        cand = np.where(prefer, remaining[:, None], assign)
        tcs = inst.c[rows, cand].sum(axis=1)
        k = int(np.argmin(tcs))  # the first minimum, as a strict < scan keeps
        best_j, best_tc = int(remaining[k]), float(tcs[k])
        remaining = np.delete(remaining, k)
        assign = cand[k]
        trace.append(_round_from_assign(inst, best_j, assign))
        if early_stop:
            if best_tc >= tc_prev:
                break
            tc_prev = best_tc

    best = min(trace, key=lambda r: r.objective)
    # Rebuild the winning assignment: customers keep the best-preferred
    # facility among those selected up to and including the winning round.
    selected = [r.facility for r in trace[: trace.index(best) + 1]]
    assign = assign_most_preferred(inst, selected)
    used = frozenset(int(j) for j in assign)
    sol = Solution(
        open_facilities=used,
        assign=assign,
        objective=best.objective,
        provenance={"algorithm": "hs" if early_stop else "hc"},
    )
    return sol, trace


def heuristic_hc(inst: Instance) -> tuple[Solution, list[GreedyRound]]:
    """Full greedy sweep: seed with the cheapest-total facility, then keep
    adding the facility whose preference-aware reassignment has the lowest
    total service cost until none remain. The returned solution is the
    best full objective among all accepted assignments.
    """
    return _greedy_sweep(inst, early_stop=False)


def heuristic_hs(inst: Instance) -> tuple[Solution, list[GreedyRound]]:
    """Greedy sweep that stops as soon as the round's best service cost
    fails to improve on the previous one (opening costs excluded from the
    stopping comparison).
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
