"""Exact optimization over open-facility sets.

Because every customer must be served by its most preferred open facility,
both the original problem and its service-relaxed variant reduce to a search
over open sets: fixing the set fixes the assignment. The engine is a
depth-first branch and bound over facility open/close decisions, with a
full-enumeration oracle for verification. Every non-empty open set is
valued at solution.price, the one price of a splpo solution: the search
carries that exact sum in its nodes, and brute_force ranks its batches by
its own sum but reports the value of _evaluate.

The slr kind is the splpo search plus the empty open set, valued at a given
threshold. Any non-empty set serves every customer, so its value is its
splpo price; only the empty set takes the threshold. (The semi-Lagrangean
subproblem is this kind, its threshold the sum of its multipliers.) An slr
search therefore starts from the empty set as its incumbent and runs the
splpo search below it, and its optimum is min(threshold, splpo optimum).
Node bounds cover the non-empty sets below a node; the bound reported for an
slr node with nothing open is min(threshold, bound), which covers the empty
leaf too.

When an slr search ends at the empty set, every set it evaluated and every
node it pruned lies at or above the threshold. Its result keeps them, in
preorder, as a Frontier: pruned nodes as their decisions, bound and branch
facility, rejected sets as their value. A search at a larger threshold
resumes from that list instead of the root: it expands every node the
earlier one expanded (their bounds lie below the old threshold, so below
every later incumbent), so it only re-tests the pruned nodes against its
incumbent and re-considers the rejected sets in their place. A pruned node
whose stored bound lies below the incumbent is rebuilt from its decisions,
to be expanded; it is bounded again first only when its stored bound lacks
a part that a larger incumbent would take (below). The replay meets every
set and every prune decision of a fresh search in the same order, so it
returns the same incumbent, ties included. The frontier also keeps the
chain order and chain table (below), so a run of resumed searches builds
the table once.

Lower bounds used at a node (open set O forced, C forced closed, U undecided):
  * every customer priced at its cheapest facility outside C, plus opening
    costs of O;
  * when O is non-empty, the preference bound. Let a[i] be customer i's cost
    at its most preferred member of O, so that value = f(O) + sum(a) is the
    price of O, let s[k, i] = max(a[i] - c[i, k], 0) for the customers i
    that prefer k to every member of O (0 for the others), and gain[k] =
    sum_i s[k, i]. The bound is value - sum over k in U of
    max(gain[k] - f[k], 0);
  * when O is non-empty, the savings-dual bound value - min D(w) over a grid
    of weights w >= 0, where
    D(w) = sum_i w[i] + sum over k in L of max(sum_i max(s[k, i] - w[i], 0) - f[k], 0)
    and L holds the facilities of U with gain[k] - f[k] > 0. The grid is
    w = max(cap - t * max(cap), 0) for eight t spread evenly over [0.2, 0.7],
    where cap[i] is the largest s[k, i] over L; all eight are evaluated in
    one pass. The grid sits where the minimising t falls: on the generator's
    families it lies in [0.2, 0.8] at the 1st-99th percentiles, and most
    often near 0.45, so no point is spent at a t that never attains the
    minimum, and stopping at 0.7 keeps the points denser near the mode.
The first is valid because preference-forced assignments never cost less
than cost-minimal ones. The second because opening a set S of undecided
facilities can move a customer only to a facility it prefers to its current
one, so O + S costs at least value - (sum_i max over k in S of s[k, i] -
f(S)), and the savings of a set of facilities never exceed the sum of their
individual savings. The third bounds the same net saving more tightly: for
any w >= 0, max over k in S of s[k, i] is at most w[i] + sum over k in S of
max(s[k, i] - w[i], 0), so the net saving of S is at most D(w), a customer's
saving counted once in w[i] rather than once per facility (the LP dual of
the savings relaxation, as in Erlenkotter's DUALOC). A facility outside L
adds 0 to D for any w, since its clipped savings sum to at most gain[k] <=
f[k], and w = 0 gives back the preference bound.

The savings-dual bound slices the rows s[k] of L out of the node's savings
matrix and costs one O(|L| * m) pass per grid point, so it is computed only
where it can prune: where the first two bounds lie below the incumbent and
value - max over k in U of (gain[k] - f[k]) does not. The second test rests
on D(w) >= gain[k] - f[k] for every w >= 0 and every k in L (the lemma above
for S = {k}, as w[i] + max(s[k, i] - w[i], 0) >= s[k, i]), so value minus
the largest net gain caps the savings-dual bound. Every prune decision is
thus the one the full bound would take, but a node's stored bound may lack
the savings-dual part. Where it was skipped only because the first two
bounds reach the incumbent, a larger incumbent may take it and prune the
node; the frontier marks such nodes stale, and a resumed search bounds a
stale node again, against its own incumbent, before expanding it. Every
other stored bound is the one a larger incumbent gives: the savings-dual
part depends only on the node's savings rows, and where it was skipped
because no undecided facility has a positive net gain, or because the cap
value - max (gain[k] - f[k]) lies below the incumbent, it is skipped at
every larger incumbent too. So the replay meets every prune decision of a
fresh search. The bound an expanded
node hands its children, which a stopped search reports as its lower bound,
stays valid but may lie below the full bound; an unstale node a resumed
search expands hands down its stored bound, which may lie above the one a
fresh search would hand down, so a resumed search stopped by a limit may
report a higher lower bound than a fresh one.

Each node carries the per-customer state these bounds need, derived from its
parent's rather than rebuilt: ``cmin`` (cheapest cost outside C), ``rank``
(rank of the most preferred member of O, which fixes the assignment), ``a``,
``savings`` (the rows s[k], one per facility) and their sums ``gain``, plus
the sums the bounds take of them. Opening j moves to j the customers that
rank it above their current server, updating ``rank`` and ``a``
elementwise, and recomputes ``savings`` and ``gain`` in one O(m*n) pass;
opening j where nothing is open moves every customer, so ``rank`` and ``a``
are j's own rows of the facility-major ranks and costs, shared, not copied;
closing j shares everything with the parent except ``cmin``, which is
recomputed only for the customers whose minimum was attained at j. Nodes with
nothing open lie on one chain of closed children below the root, whose
closed sets are the prefixes of one facility order; each closed child on it
reads ``cmin`` and its sum from a chain table built on first use, once per
search or run of resumed searches: a suffix minimum over the facility-major
cost rows of that order, whose row d is the node that closed the first d
facilities. Minima and gathers are exact and every float sum keeps its
operands and their order, so a node's state equals the one computed from its
decisions alone, bit for bit, and its value is the price of its open set.

Branching follows the preference bound: once something is open, the engine
branches on the undecided facility with the largest ``gain[k] - f[k]``, the
one whose closing raises that bound the most.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .instance import FrozenRecord, Instance, Record, check_limits, check_sites, is_number
from .solution import Solution, UNASSIGNED, assign_most_preferred, heuristic_hc, price

KIND_SPLPO = "splpo"
KIND_SLR = "slr"


class ProblemSpec(FrozenRecord):
    """What to optimize: the original problem or its service-relaxed variant.

    threshold, required for kind "slr" and invalid for "splpo", is the value
    of the empty open set, which serves no one and which only the slr kind
    admits; it must be a finite real number (not a bool) and is stored as a
    float. forced_open facilities, valid for the splpo kind only, are charged
    and may not be closed; each must be an integer facility index (a bool or
    a float raises ValueError). Every spec therefore has a feasible open
    set, and every search returns one.
    """

    __slots__ = ("kind", "inst", "threshold", "forced_open")

    def __init__(self, kind: str, inst: Instance, threshold: float | None = None,
                 forced_open=frozenset()):
        if kind not in (KIND_SPLPO, KIND_SLR):
            raise ValueError(f"unknown problem kind {kind!r}")
        if kind == KIND_SPLPO:
            if threshold is not None:
                raise ValueError("threshold is only valid for the slr kind")
        else:
            if forced_open:
                raise ValueError("forced_open is only valid for the splpo kind")
            if not (is_number(threshold) and math.isfinite(threshold)):
                raise ValueError(f"the slr kind requires a finite threshold, got {threshold!r}")
            threshold = float(threshold)
        forced_open = frozenset(check_sites("forced_open", forced_open, inst.n))
        self._set(kind, inst, threshold, forced_open)

    @staticmethod
    def splpo(inst: Instance, forced_open=()) -> "ProblemSpec":
        # A tuple, not a set: __init__ checks the members before hashing.
        return ProblemSpec(kind=KIND_SPLPO, inst=inst, forced_open=tuple(forced_open))

    @staticmethod
    def slr(inst: Instance, threshold: float) -> "ProblemSpec":
        return ProblemSpec(kind=KIND_SLR, inst=inst, threshold=threshold)


class Frontier(Record):
    """Where an slr search that ended at the empty set stopped.

    entries lists, in preorder, the nodes the search pruned, as (bound over
    the non-empty sets below, depth, open mask, closed mask, branch facility),
    and the open sets it rejected, as (value, open mask). None of them depends
    on the threshold, so a search at a larger threshold can start from them.
    The search's threshold is the result's value, that of the empty set.
    stale[i] is 1 where entry i is a pruned node whose bound skipped the
    savings-dual part that a larger incumbent would take (_Node.bound), 0
    elsewhere. order is the facility order of the chain of nodes with
    nothing open, and chain its table (_chain), None until a search built it.
    """

    __slots__ = ("inst", "entries", "stale", "order", "chain")

    def __init__(self, inst: Instance, entries: list, stale: bytearray, order: list,
                 chain: list | None):
        self.inst = inst
        self.entries = entries
        self.stale = stale
        self.order = order
        self.chain = chain


class ExactResult(Record):
    """frontier, set only for an optimal slr search that ended at the empty
    set, and rebuilt, the number of frontier entries a resumed search rebuilt
    from their masks, are left out of repr and ==."""

    __slots__ = ("value", "solution", "status", "lower_bound", "nodes", "frontier", "rebuilt")

    def __init__(self, value: float, solution: Solution, status: str, lower_bound: float,
                 nodes: int, frontier: Frontier | None = None, rebuilt: int = 0):
        self.value = value
        self.solution = solution
        self.status = status  # "optimal" or "incomplete"
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.frontier = frontier
        self.rebuilt = rebuilt

    def _key(self) -> tuple:
        return self.value, self.solution, self.status, self.lower_bound, self.nodes

    def __repr__(self) -> str:
        return (f"ExactResult(value={self.value!r}, solution={self.solution!r}, "
                f"status={self.status!r}, lower_bound={self.lower_bound!r}, nodes={self.nodes!r})")


def _evaluate(spec: ProblemSpec, mask: np.ndarray):
    """Value and forced assignment of an open set feasible for spec (empty: the threshold)."""
    inst = spec.inst
    if not mask.any():
        return spec.threshold, np.full(inst.m, UNASSIGNED, dtype=np.int64)
    assign = assign_most_preferred(inst, np.flatnonzero(mask))
    return price(inst, np.arange(inst.m), assign, mask), assign


def _solution(spec: ProblemSpec, mask: np.ndarray, provenance: dict) -> Solution:
    """The Solution of an open set feasible for spec, valued by _evaluate."""
    value, assign = _evaluate(spec, mask)
    return Solution(frozenset(np.flatnonzero(mask).tolist()), assign, value, provenance)


def _savings(a, rank, inst: Instance) -> np.ndarray:
    """Savings rows: max(a[i] - c[i, k], 0) where customer i prefers k to its server, else 0.

    a and rank are each customer's cost and rank at its server.
    """
    saving = a - inst.cT
    np.maximum(saving, 0.0, out=saving)
    # Every entry is now finite and at least +0.0 (np.maximum(-0.0, 0.0) is
    # +0.0), so multiplying by the mask is exact and zeroes an entry to +0.0.
    np.multiply(saving, inst.pT < rank, out=saving)
    return saving


# The savings-dual weights tried at a node: w = max(cap - t * max(cap), 0)
# for each t here, eight points spread evenly over [0.2, 0.7], where the
# minimum of D falls (module docstring). Written as integers over one
# divisor, so the floats do not depend on how numpy implements linspace.
_DUAL_GRID = np.arange(14, 50, 5) / 70.0


def _savings_dual(s, f, w) -> np.ndarray:
    """D(w) of the module docstring for each row of w.

    s holds the savings rows of some facilities, f their opening costs, and
    each row of w a nonnegative weight per customer.
    """
    # The weights tiled once into one contiguous (grid, facility, customer)
    # block, so each elementwise pass below is one long loop; subtracting
    # w[:, None, :] directly would loop once per (grid point, facility).
    excess = w.repeat(len(s), axis=0).reshape(len(w), *s.shape)
    np.subtract(s, excess, out=excess)
    np.maximum(excess, 0.0, out=excess)
    credit = np.add.reduce(excess, axis=2)
    credit -= f
    np.maximum(credit, 0.0, out=credit)
    return np.add.reduce(w, axis=1) + np.add.reduce(credit, axis=1)


def _served(cmin) -> float:
    """Everyone served at cmin; inf when some customer has no facility left.

    Costs are finite and nonnegative, so cmin holds no NaN and no -inf, and
    an inf entry makes the sum inf.
    """
    return float(np.add.reduce(cmin))


def _chain(inst: Instance, order: list) -> list:
    """(cmin, served) of each node with nothing open, by the number of facilities it closed.

    Entry d holds each customer's cheapest cost outside order[:d], row d of
    one suffix-minimum table over the facility-major cost rows of order
    (its last row, all inf, for the node that closed them all), and the
    row's sum. A row's pairwise sum is the float its 1-D sum gives, so each
    served is _served of its row.
    """
    table = np.full((len(order) + 1, inst.m), np.inf)
    np.minimum.accumulate(inst.cT[order[::-1]], axis=0, out=table[-2::-1])
    return list(zip(table, np.add.reduce(table, axis=1).tolist()))


class _Node:
    """One search node: its decisions plus the bound state of the module docstring.

    Children share every array they do not change with their parent, and
    the sums of those arrays with them: a closed child shares its parent's
    savings rows, which bound slices instead of rebuilding.
    """

    __slots__ = ("open", "closed", "fopen", "cmin", "served", "rank", "a", "value", "savings",
                 "gain")

    def __init__(self, open_mask, closed_mask, fopen, cmin, served, rank, a, value, savings,
                 gain):
        self.open = open_mask
        self.closed = closed_mask
        self.fopen = fopen  # opening costs of the open set
        self.cmin = cmin
        self.served = served  # _served(cmin)
        self.rank = rank
        self.a = a  # inf while nothing is open
        self.value = value  # price of the open set; None while nothing is open
        self.savings = savings  # (n, m) savings rows; None while nothing is open
        self.gain = gain  # savings.sum(axis=1); None while nothing is open

    @staticmethod
    def _opened(inst: Instance, open_mask, closed_mask, cmin, served, rank, a,
                fopen=None) -> "_Node":
        """The node of a non-empty open set, given each customer's rank and cost there.

        value takes the sums solution.price takes, so it is that price bit
        for bit; from_masks and open_child both come here, so they agree on
        value, savings and gain whenever they agree on rank and a. fopen,
        the opening costs of the set, is summed here unless given.
        """
        if fopen is None:
            fopen = float(np.add.reduce(inst.f[open_mask]))
        savings = _savings(a, rank, inst)
        return _Node(open_mask, closed_mask, fopen, cmin, served, rank, a,
                     fopen + float(np.add.reduce(a)), savings, np.add.reduce(savings, axis=1))

    @staticmethod
    def from_masks(inst: Instance, open_mask, closed_mask) -> "_Node":
        """The node with these decisions, its state computed from scratch.

        Minima and gathers are exact and the sums are those of open_child,
        so the state equals the one the node's ancestors would hand down, bit
        for bit.
        """
        cmin = np.where(closed_mask, np.inf, inst.c).min(axis=1)
        served = _served(cmin)
        if not open_mask.any():
            rank = np.full(inst.m, inst.n + 1, dtype=np.int32)
            return _Node(open_mask, closed_mask, 0.0, cmin, served, rank, np.full(inst.m, np.inf),
                         None, None, None)
        rank = inst.pT[open_mask].min(axis=0)
        rows = np.arange(inst.m)
        a = inst.c[rows, inst.facility_of_rank[rows, rank - 1]]
        return _Node._opened(inst, open_mask, closed_mask, cmin, served, rank, a)

    def open_child(self, inst: Instance, j) -> "_Node":
        open_mask = self.open.copy()
        open_mask[j] = True
        if self.value is None:
            # Nothing was open, so every customer moves to j: rank and a are
            # j's own rows and the set costs f[j], bit for bit what the
            # minimum, the where and the sum over the mask give below.
            return _Node._opened(inst, open_mask, self.closed, self.cmin, self.served,
                                 inst.pT[j], inst.cT[j], float(inst.f[j]))
        rank = np.minimum(self.rank, inst.pT[j])
        a = np.where(rank < self.rank, inst.cT[j], self.a)  # the customers that move to j
        return _Node._opened(inst, open_mask, self.closed, self.cmin, self.served, rank, a)

    def closed_child(self, inst: Instance, j, chained=None) -> "_Node":
        """The child that closes j; chained, given when nothing is open, is
        the child's (cmin, served) from the chain table (_chain)."""
        closed_mask = self.closed.copy()
        closed_mask[j] = True
        if chained is not None:
            cmin, served = chained
        else:
            cmin, served = self.cmin, self.served
            hit = (inst.cT[j] == cmin).nonzero()[0]
            if hit.size:
                cmin = cmin.copy()
                cmin[hit] = np.where(closed_mask, np.inf, inst.c[hit]).min(axis=1)
                served = _served(cmin)
        return _Node(self.open, closed_mask, self.fopen, cmin, served, self.rank, self.a,
                     self.value, self.savings, self.gain)

    def bound(self, inst: Instance, incumbent: float) -> tuple[float, int | None, bool]:
        """Lower bound on every non-empty open set below this node, the facility
        to branch on, and whether a larger incumbent could raise the bound.

        The bound is the largest of the cheapest-service bound and, once
        something is open, the preference bound value - sum over undecided k
        of max(gain[k] - f[k], 0) and the savings-dual bound value - min D(w)
        over the weight grid, eight t in [0.2, 0.7] where the minimum of D
        falls (module docstring); it is +inf when no such set exists in the
        subtree. The savings-dual bound, taken from the rows of
        savings, is computed only when the other two lie below incumbent and
        value - max over undecided k of (gain[k] - f[k]) does not, since it
        never exceeds that value; so whether the bound reaches incumbent does
        not depend on it being skipped. The flag is set when it was skipped
        only because the other two reach incumbent: bounded again at a
        larger incumbent, the node may take it. The facility is the undecided one
        with the largest gain[k] - f[k] (ties to the lowest index); it is
        None while nothing is open, when nothing is undecided, or when the
        bound is +inf.
        """
        if self.served == math.inf:
            return math.inf, None, False  # someone cannot be served, yet service is forced
        bound = self.fopen + self.served
        best = None
        stale = False
        if self.gain is not None:
            net = np.where(self.closed | self.open, -np.inf, self.gain - inst.f)
            k = int(net.argmax())
            top = float(net[k])
            if top > -math.inf:
                best = k
            bound = max(bound, self.value - float(np.add.reduce(np.maximum(net, 0.0))))
            # D(w) >= net[k] for every w, so only here can the savings-dual
            # bound reach the incumbent.
            if top > 0.0 and self.value - top >= incumbent:
                if bound < incumbent:
                    live = net > 0.0
                    s = self.savings[live]
                    cap = np.maximum.reduce(s, axis=0)
                    w = cap - _DUAL_GRID[:, None] * np.maximum.reduce(cap)
                    np.maximum(w, 0.0, out=w)
                    dual = np.minimum.reduce(_savings_dual(s, inst.f[live], w))
                    bound = max(bound, self.value - float(dual))
                else:
                    stale = True
        return bound, best, stale


def _resumed(spec: ProblemSpec, resume: ExactResult) -> Frontier:
    """The previous search's frontier, once checked that this search can continue it."""
    if spec.kind != KIND_SLR:
        raise ValueError(f"resume needs an slr spec, not one of kind {spec.kind!r}")
    if resume.status != "optimal":
        raise ValueError("resume needs a search that finished, not an incomplete one")
    if resume.frontier is None:
        raise ValueError("resume needs an slr search that ended at the empty set")
    if resume.frontier.inst is not spec.inst:
        raise ValueError("resume belongs to a search on another instance")
    # A search ends at the empty set only with its value at its threshold.
    if spec.threshold < resume.value:
        raise ValueError(f"resume needs a threshold >= {resume.value!r}, got {spec.threshold!r}")
    return resume.frontier


def branch_and_bound(
    spec: ProblemSpec,
    node_limit: int | None = None,
    time_limit: float | None = None,
    on_node=None,
    resume: ExactResult | None = None,
) -> ExactResult:
    """Depth-first search over open/close decisions with incumbent pruning.

    While nothing is open, facilities are branched in ascending order of the
    cost of opening each alone, f[j] + sum_i c[i, j]; once something is
    open, on the undecided facility with the largest gain[k] - f[k] of the
    preference bound (module docstring). Ties go to the lower index, and the
    open child is searched before the closed one. Entering a node whose bound
    is not below the incumbent prunes its subtree. After each opening
    decision the current open set is a candidate solution, valued by the
    price the node carries, which covers every reachable leaf; the
    assignment is built once, for the final incumbent. With limits exhausted
    the result is flagged incomplete and carries a still-valid lower bound. A
    negative or NaN limit raises ValueError.

    resume, an earlier result on the same instance whose frontier is set,
    continues that search at this slr spec's threshold instead of starting
    from the root; the threshold must not be smaller. The result is the one a
    fresh search would return, but nodes and node_limit count only the nodes
    this call newly evaluates, and rebuilt the frontier entries it rebuilt
    from their masks to expand or to bound again.

    on_node, when given, is called as on_node(depth, open_mask, closed_mask,
    bound, incumbent_value) for every node this call evaluates
    (instrumentation only).
    """
    check_limits(node_limit, time_limit)
    inst = spec.inst
    forced = np.zeros(inst.n, dtype=bool)
    forced[list(spec.forced_open)] = True
    if resume is None:
        root = _Node.from_masks(inst, forced.copy(), np.zeros(inst.n, dtype=bool))
        stack = [(-math.inf, 0, root, bool(forced.any()))]
        replay, replay_stale = [], b""
        # Nodes with nothing open lie on the chain of closed children below
        # the root, so their closed set is a prefix of this order. Only a
        # search with nothing forced open has them (and only it reads the
        # order); their state comes from the chain table, built when the
        # first of them is expanded.
        alone = inst.f + inst.c.sum(axis=0)
        order = np.argsort(alone, kind="stable").tolist()  # ties to the lower index
        chain = None
    else:
        earlier = _resumed(spec, resume)
        stack = []
        replay, replay_stale = earlier.entries, earlier.stale
        order, chain = earlier.order, earlier.chain

    incumbent_value = math.inf
    incumbent_mask = None
    # What a later call needs to resume this one; kept while the incumbent is
    # the empty set, which only the slr kind admits.
    frontier = stale = None

    def consider(value, mask) -> bool:
        """Take the open set as incumbent unless it is worse; say whether it was taken."""
        nonlocal incumbent_value, incumbent_mask, frontier
        if value > incumbent_value:
            return False
        incumbent_value, incumbent_mask = value, mask.copy()
        frontier = None
        return True

    # The warm start: the greedy open set for splpo; for slr the empty set,
    # valued at the threshold and never evaluated again, so node bounds need to
    # cover only the non-empty sets below a node.
    if spec.kind == KIND_SPLPO:
        warm = forced.copy()
        warm[list(heuristic_hc(inst).open_facilities)] = True
        consider(_evaluate(spec, warm)[0], warm)
    else:
        consider(spec.threshold, np.zeros(inst.n, dtype=bool))
        frontier, stale = [], bytearray()

    deadline = time.monotonic() + time_limit if time_limit is not None else None
    # Entries, each led by a lower bound on the leaves it stands for:
    #   (inherited bound, depth, node, just_opened)    a node to evaluate, on the stack
    #   (bound, depth, open, closed, branch facility)  a node an earlier call pruned
    #   (value, open)                                  a set an earlier call rejected
    # Whenever the stack is empty, a resumed search takes the next entry of
    # the earlier frontier, so the replay keeps its preorder.
    cursor = 0
    nodes = rebuilt = 0
    aborted = False
    frontier_bound = math.inf

    while True:
        if stack:
            entry = stack.pop()
        elif cursor < len(replay):
            entry = replay[cursor]
            cursor += 1
        else:
            break
        if len(entry) == 2:
            if not consider(*entry) and frontier is not None:
                frontier.append(entry)
                stale.append(0)
            continue
        if len(entry) == 5:
            bound, depth, open_mask, closed_mask, best = entry
            is_stale = replay_stale[cursor - 1]
            if bound < incumbent_value:
                node = _Node.from_masks(inst, open_mask, closed_mask)
                rebuilt += 1
                if is_stale:
                    # The stored bound skipped the savings-dual part, which
                    # this incumbent may take; bound the node against it, as
                    # a fresh search would.
                    bound, best, is_stale = node.bound(inst, incumbent_value)
        else:
            if (node_limit is not None and nodes >= node_limit) or (
                deadline is not None and time.monotonic() >= deadline
            ):
                aborted = True
                frontier_bound = min(e[0] for e in (entry, *stack, *replay[cursor:]))
                if frontier_bound == -math.inf:
                    # Only the unevaluated root inherits -inf, and it is then
                    # the only entry: its own bound covers every set below it.
                    frontier_bound = entry[2].bound(inst, incumbent_value)[0]
                break
            _, depth, node, just_opened = entry
            open_mask, closed_mask = node.open, node.closed
            nodes += 1
            bound, best, is_stale = node.bound(inst, incumbent_value)
            if on_node is not None:
                shown = bound
                if spec.kind == KIND_SLR and node.value is None:
                    shown = min(bound, spec.threshold)  # the empty set lies below too
                on_node(depth, open_mask.copy(), closed_mask.copy(), shown, incumbent_value)
            if just_opened:
                # Evaluate the current open set before the prune check so that a
                # subtree whose bound ties the incumbent still surrenders its
                # equal-valued solution (deterministic tie-breaking).
                if not consider(node.value, open_mask) and frontier is not None:
                    frontier.append((node.value, open_mask))
                    stale.append(0)
        if bound >= incumbent_value:
            if frontier is not None:
                frontier.append((bound, depth, open_mask, closed_mask, best))
                stale.append(is_stale)
            continue
        if best is None:  # nothing is open: the closed child closes order[:depth + 1]
            if chain is None:
                chain = _chain(inst, order)
            j, chained = order[depth], chain[depth + 1]
        else:
            j, chained = best, None
        stack.append((bound, depth + 1, node.closed_child(inst, j, chained), False))
        stack.append((bound, depth + 1, node.open_child(inst, j), True))

    if aborted:
        status = "incomplete"
        lower_bound = min(incumbent_value, frontier_bound)
        frontier = None
    else:
        status = "optimal"
        lower_bound = incumbent_value

    return ExactResult(
        value=incumbent_value,
        solution=_solution(
            spec,
            incumbent_mask,
            {"algorithm": "branch_and_bound", "kind": spec.kind, "status": status},
        ),
        status=status,
        lower_bound=lower_bound,
        nodes=nodes,
        frontier=None if frontier is None else Frontier(inst, frontier, stale, order, chain),
        rebuilt=rebuilt,
    )


BRUTE_FORCE_MAX_SITES = 20


def brute_force(spec: ProblemSpec) -> ExactResult:
    """Enumerate every open set (oracle; n capped at BRUTE_FORCE_MAX_SITES).

    Reported values go through the same evaluator as branch_and_bound. Ties
    resolve to the set whose indicator vector (facility order) is smallest.
    """
    inst = spec.inst
    n = inst.n
    if n > BRUTE_FORCE_MAX_SITES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_SITES} sites, got {n}")
    total = 1 << n
    shifts = n - 1 - np.arange(n)
    forced = sorted(spec.forced_open)

    best_k = -1
    best_value = math.inf
    chunk = max(1, (1 << 22) // max(1, inst.m * n))
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        masks = ((ks[:, None] >> shifts[None, :]) & 1).astype(bool)
        ok = masks.any(axis=1)
        if spec.kind == KIND_SLR:
            ok |= ks == 0
        ok &= masks[:, forced].all(axis=1)
        if not ok.any():
            continue
        ranked = np.where(masks[:, None, :], inst.p[None, :, :], n + 1)
        assign = np.argmin(ranked, axis=2)
        service = inst.c[np.arange(inst.m), assign]
        values = service.sum(axis=1) + masks.astype(float) @ inst.f
        if spec.kind == KIND_SLR and start == 0:
            values[0] = spec.threshold
        values = np.where(ok, values, np.inf)
        k_local = int(np.argmin(values))
        if values[k_local] < best_value:
            best_value = float(values[k_local])
            best_k = start + k_local

    mask = ((best_k >> shifts) & 1).astype(bool)
    solution = _solution(
        spec, mask, {"algorithm": "brute_force", "kind": spec.kind, "status": "optimal"})
    value = solution.objective
    return ExactResult(
        value=value, solution=solution, status="optimal", lower_bound=value, nodes=total
    )


__all__ = [
    "ExactResult",
    "KIND_SLR",
    "KIND_SPLPO",
    "ProblemSpec",
    "branch_and_bound",
    "brute_force",
]
