"""Lagrangean relaxation of the assignment and preference constraints.

Relaxing both constraint families leaves a problem that decomposes over
facilities and is solvable in closed form: facility j opens exactly when its
aggregated reduced cost is negative. The dual is maximized with a projected
subgradient method driven by a target upper bound (Polyak-style step sizes).

The preference terms are suffix (and, in the subgradient, prefix) sums along
each customer's ranking, so one private kernel evaluates the relaxation and
its subgradient in rank order: each customer's row lists its sites worst
first, as ``Instance.flat_rank_index`` defines it, and those sums are plain
row-wise running sums. The subgradient method holds lam in rank order for
its whole run, reuses one set of (m, n) buffers, and takes its best lam back
to site order once, at the end. ``solve_lr`` takes and returns site-order
arrays and converts at its edges. The relaxed assignment x is a bool array,
like y.

The kernel calls numpy's ufuncs directly, and every float it makes is the
one a site-order loop would make:

* running sums are ``np.add.accumulate`` along rows, the adds
  ``np.cumsum`` makes, without its wrapper, and in the int8 cover counter
  without its widening to int64;
* rho is one ``np.bincount`` over the cells, customer after customer, then
  a last row holding f: each site's sum starts at +0.0, adds its cells in
  customer order and then f, the adds of a column sum followed by + f;
* the value is ``np.add.reduce`` over rho's negative entries plus
  ``np.add.reduce`` over mu, the reductions ``sum()`` makes;
* the subgradient's squared norm is two dot products of small integers
  held as floats, exact in any order.

lam is mostly zero in a run: an all-zero row adds only +0.0 to its running
sum and to the column sums, so when fewer than half the rows hold a non-zero
entry, the kernel gathers those rows alone (``take``), sums them and writes
them back, and otherwise sums the whole array. The subgradient's cover
counts (at most n) accumulate in int8 when n < 128 and in int64 otherwise,
and its entries, small integers, are held as floats.

A step often changes little, so the loop redoes only the work whose inputs
changed, and each skip leaves every float as it was:

* when no row of lam is non-zero, the relaxation adds nothing for lam at
  all, where every term would be +0.0 (a column sum starts at +0.0, so the
  sums it would be added to are never -0.0);
* once a relaxation has found lam all zero, a step along a subgradient with
  no positive entry leaves lam as it is, since max(0.0, 0.0 + alpha * s) is
  +0.0 for s <= 0: that step is skipped, and the relaxation after it does
  not look for non-zero rows; whether the subgradient has a positive entry
  is found at most once per (x, y);
* the open set y is spread over the cells, into a new array, only when it
  differs, byte for byte, from the y spread last time, which those cells
  still hold;
* the subgradient and its squared norm are functions of (x, y) alone, so
  they are recomputed only when that pair differs from the one they were
  last computed from (kept as byte copies, since the kernel overwrites x in
  place on every step).

Multipliers are checked once, where ``LagrangeMultipliers`` is built, and
their shapes where ``solve_lr`` reads them; the subgradient method checks
its start, by relaxing it through ``solve_lr``, and builds its iterates,
finite steps from that start, unchecked.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import FrozenRecord, Instance, Record, check_count
from .solution import heuristic_hc

IMPROVEMENT_TOL = 1e-9  # how far a relaxation value must beat the incumbent

# The paper's step schedule: beta starts at BETA0 and, once the incumbent has
# not improved for STALL_WINDOW consecutive iterations, drops by
# BETA_DECREMENT per iteration. SG_MAX_ITER is the default update budget.
BETA0 = 2.0
STALL_WINDOW = 30
BETA_DECREMENT = 0.005
SG_MAX_ITER = 1500


class LagrangeMultipliers(FrozenRecord):
    """mu penalizes unassigned customers (free sign); lam penalizes preference
    violations and must stay componentwise nonnegative. An entry that is
    NaN or infinite, or a negative entry of lam, raises ValueError."""

    __slots__ = ("mu", "lam")

    def __init__(self, mu: np.ndarray, lam: np.ndarray):
        mu = np.asarray(mu, dtype=float)
        lam = np.asarray(lam, dtype=float)
        if not np.isfinite(mu).all():
            raise ValueError("mu must be finite")
        _check_lam(lam)
        self._set(mu, lam)


def _check_lam(lam: np.ndarray) -> None:
    # Written so that NaN fails too.
    if not (lam.min(initial=0.0) >= 0.0 and lam.max(initial=0.0) < math.inf):
        raise ValueError("lam must be finite and nonnegative")


class LrSolution(Record):
    """Closed-form relaxation output; (x, y) need not be feasible upstream.

    x[i, j] says customer i is assigned to facility j and y[j] that j is
    open; solve_lr returns both as bool arrays, shapes (m, n) and (n,). rho
    is each facility's aggregated reduced cost.
    """

    __slots__ = ("value", "x", "y", "rho")

    def __init__(self, value: float, x: np.ndarray, y: np.ndarray, rho: np.ndarray):
        self.value = value
        self.x = x
        self.y = y
        self.rho = rho


def _check_shape(name: str, a: np.ndarray, shape: tuple) -> None:
    # Flat gathers would silently misread a same-size array of another shape.
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")


class _RankRelaxation:
    """The relaxation of one instance with lam in rank order.

    Every (m, n) array here is in rank order: row i lists customer i's sites
    worst first. ``facility[i, q]`` is the site in cell (i, q). The buffers
    are reused, so each call overwrites what the last one returned in them.
    ``cells`` holds min(reduced, 0) above a last row holding f, and
    ``sites_f`` the site of each of its entries, so one bincount gives rho
    before lam's column sums. ``solve`` sums lam's non-zero rows alone when
    they are fewer than half of them (none at all when there are none, and
    it does not look for them when told that lam is all zero), and the
    whole array otherwise, and records in self.live whether it found any;
    it spreads y into a new self.y only when it differs from ``y_bytes``,
    the y spread last. ``subgradient`` counts covers in an int8 counter
    when n < 128 and in an int64 one otherwise, summing in the counter's
    own type.
    """

    def __init__(self, inst: Instance):
        self.to_rank, self.to_site = inst.flat_rank_index
        self.c = inst.c.take(self.to_rank)
        m, n = self.c.shape
        self.f = inst.f
        self.ones = np.ones(n)
        self.facility = np.ascontiguousarray(inst.facility_of_rank[:, ::-1])
        # Each cell's site, then each site once more for the row of f.
        self.sites_f = np.concatenate((self.facility.ravel(), np.arange(n)))
        self.sites = self.sites_f[:m * n]
        self.reduced = np.empty((m, n))
        # A bincount adds each site's cells customer after customer, then f.
        self.cells = np.empty((m + 1, n))
        self.cells[m] = self.f
        self.scratch = self.cells[:m]
        self.x = np.empty((m, n), dtype=bool)
        self.y = None  # y per cell, a new array at each spread
        # A count never exceeds n, and y minus a count is at least -n.
        self.covered = np.empty((m, n), dtype=np.int8 if n < 128 else np.int64)
        self.s_lam = np.empty((m, n))
        self.y_bytes = None  # the site-order y last spread over self.y
        self.live = True  # whether lam held a non-zero row in the last solve

    def colsum(self, a: np.ndarray, rows=None) -> np.ndarray:
        """Per-site sums of a, the given rows of an (m, n) array (all of them
        by default), adding customer after customer like sum(axis=0) in site
        order: the same floats, up to the sign of a zero sum."""
        sites = self.sites if rows is None else self.facility.take(rows, axis=0).ravel()
        return np.bincount(sites, weights=a.ravel(), minlength=self.f.size)

    def solve(self, mu: np.ndarray, lam: np.ndarray,
              live: bool = True) -> tuple[float, np.ndarray, np.ndarray]:
        """(value, rho, y) in site order; self.x and self.y get x and y per cell.

        live=False promises that lam is all zero, and its rows go unread.
        self.live records whether lam held a non-zero row.
        """
        reduced, scratch = self.reduced, self.scratch
        np.subtract(self.c, mu[:, None], out=reduced)
        self.live = False
        if live:
            # An all-zero row adds +0.0 to the sums, which changes no float.
            # lam is nonnegative, so a row sums to zero exactly when it is
            # all zeros (and a NaN row counts as non-zero).
            rows = lam.dot(self.ones).nonzero()[0]
            self.live = rows.size > 0
            if 2 * rows.size >= len(lam):
                np.add.accumulate(lam, axis=1, out=scratch)
                reduced -= scratch
                lam_sum = self.colsum(lam)
            elif rows.size:
                part = lam.take(rows, axis=0)
                lam_sum = self.colsum(part, rows)
                np.add.accumulate(part, axis=1, out=part)
                reduced[rows] = np.subtract(reduced.take(rows, axis=0), part, out=part)
        np.minimum(reduced, 0.0, out=scratch)
        rho = np.bincount(self.sites_f, weights=self.cells.ravel())
        if self.live:
            # Without rows lam_sum is +0.0, which changes no sum here: a
            # column sum starts at +0.0, so neither it nor its sum with f
            # is -0.0.
            rho += lam_sum
        y = rho < 0.0
        y_bytes = y.tobytes()
        if y_bytes != self.y_bytes:
            self.y = y[self.facility]
            self.y_bytes = y_bytes
        np.less(reduced, 0.0, out=self.x)
        self.x &= self.y
        return float(np.add.reduce(rho[y]) + np.add.reduce(mu)), rho, y

    def subgradient(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s_mu, s_lam) from x and y per cell; s_lam holds integers as floats."""
        covered = self.covered
        # Counts from each customer's favourite, stored worst first like x.
        np.copyto(covered, x)
        # In the counter's own type: cumsum would widen an int8 one to int64.
        np.add.accumulate(covered[:, ::-1], axis=1, out=covered[:, ::-1])
        np.subtract(y, covered, out=self.s_lam)
        return 1.0 - covered[:, 0], self.s_lam


def solve_lr(inst: Instance, mult: LagrangeMultipliers) -> LrSolution:
    """Closed-form optimum of the relaxation at fixed multipliers.

    Facility j opens iff rho_j < 0, where rho_j adds every negative reduced
    service cost in column j to the penalized opening cost. x[i, j] is true
    iff j is open and the reduced cost is strictly negative. The value is
    the sum of negative rho plus the mu total, a lower bound on the optimum.
    mu must have shape (m,) and lam shape (m, n), else ValueError.
    """
    _check_shape("mu", mult.mu, (inst.m,))
    _check_shape("lam", mult.lam, (inst.m, inst.n))
    rel = _RankRelaxation(inst)
    value, rho, y = rel.solve(mult.mu, mult.lam.take(rel.to_rank))
    return LrSolution(value=value, x=rel.x.take(rel.to_site), y=y, rho=rho)


def default_start(inst: Instance) -> LagrangeMultipliers:
    """mu_i = min_j (c[i, j] + f[j]), lam = 0."""
    mu = (inst.c + inst.f[None, :]).min(axis=1)
    return LagrangeMultipliers(mu=mu, lam=np.zeros((inst.m, inst.n)))


class SgTraceRow(Record):
    __slots__ = ("iteration", "lr_value", "lr_best", "beta", "alpha", "s_norm_sq")

    def __init__(self, iteration: int, lr_value: float, lr_best: float, beta: float,
                 alpha: float, s_norm_sq: float):
        self.iteration = iteration
        self.lr_value = lr_value
        self.lr_best = lr_best
        self.beta = beta
        self.alpha = alpha
        self.s_norm_sq = s_norm_sq


class SgResult(Record):
    __slots__ = ("best_value", "best_mu", "best_lam", "best_iteration", "iterations", "status",
                 "trace")

    def __init__(self, best_value: float, best_mu: np.ndarray, best_lam: np.ndarray,
                 best_iteration: int, iterations: int, status: str, trace: list | None = None):
        self.best_value = best_value
        self.best_mu = best_mu
        self.best_lam = best_lam
        self.best_iteration = best_iteration
        self.iterations = iterations
        self.status = status  # "optimal", "beta_exhausted", "iter_limit", or "aim_exceeded"
        self.trace = [] if trace is None else trace


def subgradient_method(
    inst: Instance, max_iter: int = SG_MAX_ITER, start: LagrangeMultipliers | None = None
) -> SgResult:
    """Maximize the Lagrangean dual by projected subgradient steps.

    Steps use alpha = beta * (lr_aim - value) / ||s||^2, where the aim
    lr_aim is heuristic_hc's objective, and the run stops if a value exceeds
    it; mu moves freely while lam is clipped at zero. beta follows the
    paper's schedule (BETA0, STALL_WINDOW, BETA_DECREMENT), and the run
    stops at beta <= 0, a zero subgradient, or max_iter updates; max_iter
    must be a nonnegative integer (a bool raises ValueError). The incumbent
    is the best relaxation value seen, with the achieving multipliers
    retained. Iterations count multiplier updates; the starting point is
    iteration 0.
    The start is checked once; the iterates, finite steps from it with lam
    clipped at zero, are not.
    lam is held in rank order during the run; best_lam is in site order.
    The subgradient is recomputed only at an (x, y) other than the last.
    Once a relaxation has found lam all zero, a step along a subgradient
    with no positive entry would leave lam as it is, so it is skipped and
    the next relaxation does not look for non-zero rows of lam.
    """
    max_iter = check_count("max_iter", max_iter)
    if start is None:
        start = default_start(inst)
    lr_aim = heuristic_hc(inst).objective

    mu = start.mu.copy()
    # The start's one check, shapes included, before any flat gather reads it.
    lr = solve_lr(inst, LagrangeMultipliers(mu, start.lam))
    rel = _RankRelaxation(inst)
    lam = start.lam.take(rel.to_rank)
    value, x, y = lr.value, lr.x.take(rel.to_rank), lr.y.take(rel.facility)
    # (x, y) as byte copies, since the kernel overwrites its x and y in place;
    # the subgradient is recomputed only at a point other than the last.
    point = (x.tobytes(), lr.y.tobytes())
    last_point = None
    step = np.empty(lam.shape)
    # Whether lam may hold a non-zero entry: true at the start, and then
    # exactly when the last relaxation found a non-zero row.
    live = True
    best_value = value
    best_mu, best_lam = mu.copy(), lam.copy()
    best_iteration = 0
    beta = BETA0
    stall = 0
    status = "iter_limit"
    trace = []
    iteration = 0

    while True:
        if point != last_point:
            s_mu, s_lam = rel.subgradient(x, y)
            # Subgradient entries are small integers, so these sums are exact in any order.
            s = s_lam.ravel()
            norm_sq = float(s_mu.dot(s_mu) + s.dot(s))
            rises = None  # whether s_lam has a positive entry, found when needed
            last_point = point
        if norm_sq == 0.0:
            trace.append(
                SgTraceRow(iteration, value, best_value, beta, 0.0, 0.0)
            )
            status = "optimal"
            break
        gap = lr_aim - value
        if gap < 0:
            trace.append(
                SgTraceRow(iteration, value, best_value, beta, math.nan, norm_sq)
            )
            status = "aim_exceeded"
            break
        alpha = beta * gap / norm_sq
        trace.append(SgTraceRow(iteration, value, best_value, beta, alpha, norm_sq))
        if iteration >= max_iter:
            status = "iter_limit"
            break

        mu += alpha * s_mu
        if not live:
            # lam is all zero, and max(0.0, 0.0 + alpha * s) is +0.0 for s <= 0
            # and a finite alpha (an overflow's inf or NaN alpha steps). A -0.0
            # of the start outlives the first step only where alpha is 0, and
            # then no step moves anything.
            if rises is None:
                rises = bool(s_lam.max() > 0)
            live = rises or not alpha < math.inf
        if live:
            np.multiply(s_lam, alpha, out=step)
            lam += step
            np.maximum(0.0, lam, out=lam)
        value = rel.solve(mu, lam, live)[0]
        live = rel.live
        x, y = rel.x, rel.y
        point = (x.tobytes(), rel.y_bytes)
        iteration += 1
        if value > best_value + IMPROVEMENT_TOL:
            best_value = value
            best_mu, best_lam = mu.copy(), lam.copy()
            best_iteration = iteration
            stall = 0
        else:
            stall += 1
        if stall >= STALL_WINDOW:
            beta -= BETA_DECREMENT
        if beta <= 0:
            trace.append(
                SgTraceRow(iteration, value, best_value, beta, math.nan, math.nan)
            )
            status = "beta_exhausted"
            break

    return SgResult(
        best_value=best_value,
        best_mu=best_mu,
        best_lam=best_lam.take(rel.to_site),
        best_iteration=best_iteration,
        iterations=iteration,
        status=status,
        trace=trace,
    )


__all__ = [
    "LagrangeMultipliers",
    "LrSolution",
    "SgResult",
    "SgTraceRow",
    "default_start",
    "solve_lr",
    "subgradient_method",
]
