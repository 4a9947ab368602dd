"""Problem instances: costs, preference rankings, parsing, and generation.

An instance couples m customers with n candidate facility sites. Each
customer carries a full strict ranking of the sites (rank 1 is the
favourite), which is what distinguishes this problem from plain
uncapacitated facility location: an open facility that a customer prefers
over its assigned server makes the assignment infeasible.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import cached_property

import numpy as np

FORMAT_NAME = "SPLPO"
FORMAT_VERSION = 1


class Record:
    """Base of the package's record classes, whose fields are the names in
    ``__slots__``, in constructor order.

    A record's repr lists every field as ``Name(field=value, ...)``, and two
    records of one class are == when their compared fields are (every field,
    unless a class narrows ``_key``), array fields by value. Plain classes
    with an explicit ``__init__``, so defining one generates no code at
    import.
    """

    __slots__ = ()
    __hash__ = None  # mutable, so unhashable

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._key(), other._key()))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def asdict(self) -> dict:
        """The fields by name, in constructor order."""
        return {name: getattr(self, name) for name in self.__slots__}


def _same(a, b) -> bool:
    """Field equality as a tuple's ==, but arrays compare by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a is b or bool(a == b)


class FrozenRecord(Record):
    """A Record set once, by ``__init__`` through ``_set``: assigning or
    deleting a field afterwards raises AttributeError, and the record hashes
    by its compared fields. Copies and pickles are rebuilt by ``__init__``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), tuple(self.asdict().values())


class InstanceFormatError(ValueError):
    """Malformed instance document; remembers the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Instance:
    """Immutable instance data.

    f: opening costs, shape (n,), all finite and >= 0.
    c: service costs, shape (m, n), all finite and >= 0.
    p: preference ranks, shape (m, n); every row is a permutation of 1..n
       with 1 marking the customer's most preferred site (a bool, or a float
       that is not a whole number, raises ValueError).

    Not a Record: derived data (the facility-major cT and pT, the greedy
    sweep) lives in its ``__dict__``. Copies and pickles are rebuilt by
    ``__init__`` from (f, c, p, name), so they hold read-only arrays and no
    derived data.
    """

    def __init__(self, f: np.ndarray, c: np.ndarray, p: np.ndarray, name: str = ""):
        self.f = np.ascontiguousarray(f, dtype=float)
        self.c = np.ascontiguousarray(c, dtype=float)
        self.p = _ranks(p)
        self.name = name
        if self.c.ndim != 2:
            raise ValueError("c must be a 2-d cost matrix")
        m, n = self.c.shape
        if m < 1 or n < 1:
            raise ValueError("need at least one customer and one site")
        if self.f.shape != (n,):
            raise ValueError(f"f must have shape ({n},), got {self.f.shape}")
        if self.p.shape != (m, n):
            raise ValueError(f"p must have shape ({m}, {n}), got {self.p.shape}")
        if not np.isfinite(self.f).all():
            raise ValueError("non-finite opening cost")
        if not np.isfinite(self.c).all():
            raise ValueError("non-finite service cost")
        if np.any(self.f < 0):
            raise ValueError("negative opening cost")
        if np.any(self.c < 0):
            raise ValueError("negative service cost")
        bad = np.flatnonzero((np.sort(self.p, axis=1) != np.arange(1, n + 1)).any(axis=1))
        if bad.size:
            raise ValueError(f"preference row {bad[0] + 1} is not a permutation of 1..{n}")
        for a in (self.f, self.c, self.p):
            a.setflags(write=False)

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def n(self) -> int:
        return self.c.shape[1]

    @cached_property
    def facility_of_rank(self) -> np.ndarray:
        """facility_of_rank[i, r-1] is the facility customer i ranks r-th."""
        out = np.empty_like(self.p)
        out[np.arange(self.m)[:, None], self.p - 1] = np.arange(self.n)[None, :]
        return _read_only(out)

    @cached_property
    def cT(self) -> np.ndarray:
        """Facility-major costs: cT[j], column j of c, is one contiguous row."""
        return _read_only(np.ascontiguousarray(self.c.T))

    @cached_property
    def pT(self) -> np.ndarray:
        """Facility-major ranks as int32, which halves the bytes a rank comparison reads."""
        return _read_only(np.ascontiguousarray(self.p.T, dtype=np.int32))

    @cached_property
    def flat_rank_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(to_rank, to_site): flat ``ndarray.take`` indices into rank order and back.

        Rank order runs worst first: for an (m, n) array a,
        ``a.take(to_rank)[i, q]`` is a[i, j] for the facility j that customer
        i ranks (n - q)-th, so column 0 holds its least preferred site.
        ``b.take(to_site)`` maps such a b back, so ``a.take(to_rank).take(to_site)``
        equals a. Worst first makes a sum over the sites a customer likes no
        better than j a plain cumsum.
        """
        base = (np.arange(self.m) * self.n)[:, None]
        to_rank = base + self.facility_of_rank[:, ::-1]
        to_site = base + (self.n - self.p)
        return _read_only(to_rank), _read_only(to_site)

    def __reduce__(self):
        return type(self), (self.f, self.c, self.p, self.name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            np.array_equal(self.f, other.f)
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.p, other.p)
        )

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Instance(m={self.m}, n={self.n}{tag})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _ranks(p) -> np.ndarray:
    """p as int64; ValueError naming p for a bool or a float that is not a whole number."""
    a = np.asarray(p)
    # numpy casts a bool among numbers without a trace, so a list is read entry by entry.
    if a.dtype.kind == "b" or not isinstance(p, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(p, dtype=object).flat):
        raise ValueError("p must hold integer ranks, got a bool")
    if a.dtype.kind == "f" and not (np.trunc(a) == a).all():
        raise ValueError("p must hold integer ranks, got a float that is not a whole number")
    return np.ascontiguousarray(a, dtype=np.int64)


def facility_sort_keys(inst: Instance) -> np.ndarray:
    """Attractiveness key per facility: sum_i c[i, j] + m * f[j] (lower is better)."""
    return inst.c.sum(axis=0) + inst.m * inst.f


# ---------------------------------------------------------------------------
# Canonical text format
#
#   line 1: "SPLPO 1"
#   line 2: "m n"
#   line 3: f_1 ... f_n
#   next m lines: rows of c
#   next m lines: rows of p (each a permutation of 1..n)
# ---------------------------------------------------------------------------


def _fmt(block: np.ndarray) -> str:
    """A 1-d or 2-d block as text, one line per row, in one formatting pass.

    Values that are integral and below 2**53 in magnitude become Python ints
    (so -0.0 becomes 0), the rest Python floats; "%s" then writes an int as
    integer text and a float as its repr.
    """
    a = np.atleast_2d(block)
    whole = (a == np.trunc(a)) & (np.abs(a) < 2**53)
    values = a.astype(object)
    values[whole] = a[whole].astype(np.int64)
    m, n = a.shape
    return "\n".join([" ".join(["%s"] * n)] * m) % tuple(values.ravel().tolist())


def write_instance(inst: Instance) -> str:
    """The canonical-format document for inst, ending in a newline.

    Every cost and rank that is integral and below 2**53 in magnitude is
    written as integer text (-0.0 as 0), every other value by repr, which
    float() reads back exactly; so parse_instance returns an equal Instance.
    """
    header = f"{FORMAT_NAME} {FORMAT_VERSION}\n{inst.m} {inst.n}"
    return "\n".join((header, _fmt(inst.f), _fmt(inst.c), _fmt(inst.p))) + "\n"


def _token_fault(token: str) -> str | None:
    """What float() makes of a token that is not a finite number, else None."""
    try:
        return None if math.isfinite(float(token)) else "non-finite number"
    except ValueError:
        return "bad number"


def _block(rows: list[tuple[int, str]], n: int, kind: str) -> tuple:
    """(numbers, fault): the rows' numbers as one float array, converted in
    one pass, and None; or, if a row has other than n tokens, a token that
    float() rejects or a non-finite number, the numbers of the rows before
    the first such row, read by float() one row at a time, and its fault."""
    tokens = [ln.split() for _, ln in rows]
    try:
        a = np.array(tokens, dtype=float)  # ragged rows raise ValueError too
        if a.shape == (len(rows), n) and np.isfinite(a).all():
            return a, None
    except ValueError:
        pass
    values = []
    for k, ((no, _), row) in enumerate(zip(rows, tokens)):
        where = f"{kind} row {k + 1}"
        if len(row) != n:
            fault = f"{where} has {len(row)} values, expected {n}"
        else:
            fault = next((f"{what} {t!r} in {where}" for t in row
                          if (what := _token_fault(t))), None)
        if fault:
            return np.array(values).reshape(k, n), InstanceFormatError(fault, no)
        values.append([float(t) for t in row])
    return np.array(values), None


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse a canonical-format document into a validated Instance.

    Each number block is converted in one pass, and its value rules (no
    negative cost; each preference row, sorted, equals 1..n) are checked on
    the whole block. Only a block that fails to convert is read row by row,
    up to the first row with a text fault; the value rules then run on the
    rows before it. So a fault is reported as the first one in document
    order, by its row and line.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise InstanceFormatError("empty document")

    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != FORMAT_NAME or parts[1] != str(FORMAT_VERSION):
        raise InstanceFormatError(f"malformed header {header!r}", no)

    if len(lines) < 2:
        raise InstanceFormatError("missing dimension line", no)
    no, dims = lines[1]
    try:
        m, n = (int(t) for t in dims.split())
    except ValueError:
        raise InstanceFormatError(f"malformed dimension line {dims!r}", no) from None
    if m < 1 or n < 1:
        raise InstanceFormatError(f"dimensions must be positive, got {m} {n}", no)

    expected = 3 + 2 * m
    if len(lines) != expected:
        raise InstanceFormatError(
            f"expected {expected} non-empty lines for m={m}, got {len(lines)}",
            lines[-1][0],
        )

    ranks = np.arange(1, n + 1)
    blocks = []
    for rows, kind, broken, message in (
        (lines[2:3], "opening-cost", lambda a: a < 0, "negative cost in opening-cost row"),
        (lines[3:3 + m], "service-cost", lambda a: a < 0, "negative cost in service-cost row {}"),
        (lines[3 + m:], "preference", lambda a: np.sort(a, axis=1) != ranks,
         f"preference row {{}} is not a permutation of 1..{n}"),
    ):
        a, fault = _block(rows, n, kind)
        bad = np.flatnonzero(broken(a).any(axis=1))
        if bad.size:
            raise InstanceFormatError(message.format(bad[0] + 1), rows[bad[0]][0])
        if fault:
            raise fault
        blocks.append(a)
    f, c, p = blocks
    return Instance(f=f[0], c=c, p=p.astype(np.int64), name=name)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


class GeneratorConfig(FrozenRecord):
    """Knobs for the seeded instance generator.

    mode "uniform" draws each preference row as a uniform random permutation;
    mode "cost-consistent" ranks facilities by the generated service costs
    (random tie-breaking), so cheaper sites are preferred. Costs are drawn
    from the inclusive integer ranges. A range that is not a pair of
    integers lo, hi with 0 <= lo <= hi raises ValueError; the ranges are
    stored as tuples of ints.
    """

    __slots__ = ("mode", "cost_range", "open_range")

    def __init__(self, mode: str = "uniform", cost_range: tuple[int, int] = (1000, 2000),
                 open_range: tuple[int, int] = (8000, 12000)):
        if mode not in ("uniform", "cost-consistent"):
            raise ValueError(f"unknown generator mode {mode!r}")
        pairs = []
        for name, r in (("cost_range", cost_range), ("open_range", open_range)):
            pair = tuple(map(as_int, r)) if isinstance(r, (tuple, list)) else ()
            if not (len(pair) == 2 and None not in pair and 0 <= pair[0] <= pair[1]):
                raise ValueError(
                    f"{name} must be a pair of integers lo, hi with 0 <= lo <= hi, got {r!r}")
            pairs.append(pair)
        self._set(mode, *pairs)


def as_int(value) -> int | None:
    """value as an int if it is an integer (a Python or numpy one, a 0-d
    integer array included), else None; a bool is not an integer here."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def is_number(x) -> bool:
    """Whether x is a real number (a Python or numpy one), not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_count(name: str, value, low: int = 0) -> int:
    """value as an int; ValueError naming it unless it is an integer of at
    least low, 0 (a nonnegative integer) or 1 (a positive one)."""
    v = as_int(value)
    if v is None or v < low:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return v


def check_limits(node_limit: int | None, time_limit: float | None) -> int | None:
    """node_limit as an int, or None; ValueError unless node_limit is None or
    a nonnegative integer and time_limit None or a nonnegative number
    (neither a bool)."""
    if node_limit is not None:
        node_limit = check_count("node_limit", node_limit)
    # Written as "not >= 0" so that NaN fails too.
    if time_limit is not None and not (is_number(time_limit) and time_limit >= 0):
        raise ValueError(f"time_limit must be a nonnegative number, got {time_limit!r}")
    return node_limit


def check_sites(name: str, ids, n: int) -> list[int]:
    """ids as a list of ints; ValueError naming them unless each is an
    integer site index 0..n-1 (a bool or a float is not one)."""
    ids = list(ids)
    bad = [j for j in ids if as_int(j) is None or not 0 <= j < n]
    if bad:
        raise ValueError(f"{name} holds {bad}, which are not sites 0..{n - 1}")
    return [as_int(j) for j in ids]


def generate_instance(
    m: int, n: int, seed: int, params: GeneratorConfig | None = None, name: str = ""
) -> Instance:
    """Deterministically generate an instance from (m, n, seed, params).

    Costs are integers so that round-trips through the text format and
    equality tests are exact. Draw order is fixed: c, then f, then the
    preferences of every customer, row by row. The preferences are drawn
    for all customers at once (one (m, n) block of tie-breakers, or one
    permutation per row of an (m, n) block), which consumes the stream
    exactly as one draw per customer row did, so a seed gives the same
    instance as before. m and n must be integers of at least 1 and seed a
    nonnegative integer, else ValueError.
    """
    m, n = check_count("m", m, 1), check_count("n", n, 1)
    seed = check_count("seed", seed)
    cfg = params or GeneratorConfig()
    rng = np.random.default_rng(seed)
    lo, hi = cfg.cost_range
    c = rng.integers(lo, hi + 1, size=(m, n)).astype(float)
    lo, hi = cfg.open_range
    f = rng.integers(lo, hi + 1, size=n).astype(float)
    if cfg.mode == "uniform":
        order = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    else:
        order = np.lexsort((rng.random((m, n)), c), axis=1)
    p = np.empty((m, n), dtype=np.int64)
    np.put_along_axis(p, order, np.arange(1, n + 1), axis=1)
    return Instance(f=f, c=c, p=p, name=name)


# ---------------------------------------------------------------------------
# OR-Library warehouse-location import (secondary path)
# ---------------------------------------------------------------------------


def parse_orlib(text: str, preferences: str, name: str = "") -> Instance:
    """Import an OR-Library uncapacitated warehouse file plus a preference sidecar.

    The main file lists n warehouses then m customers; capacity and demand
    fields are ignored. The sidecar holds m whitespace-separated permutation
    rows of 1..n, in customer order. InstanceFormatError, naming the field,
    for a count that is not a positive integer, a missing or non-numeric
    value, a fixed or allocation cost that is negative or not finite, a
    value left after the last customer, and a sidecar that does not hold m
    permutations of 1..n.
    """
    tokens = text.split()
    pos = 0

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise InstanceFormatError(f"unexpected end of file reading {what}")
        tok = tokens[pos]
        pos += 1
        return tok

    def take_float(what: str) -> float:
        tok = take(what)
        try:
            return float(tok)
        except ValueError:
            raise InstanceFormatError(f"bad number {tok!r} reading {what}") from None

    def take_cost(what: str) -> float:
        v = take_float(what)
        if not 0 <= v < math.inf:  # NaN fails too
            raise InstanceFormatError(
                f"{what} must be a finite nonnegative number, got {tokens[pos - 1]!r}")
        return v

    def take_count(what: str) -> int:
        v = take_float(what)
        if not (1 <= v < math.inf and v == int(v)):
            raise InstanceFormatError(f"{what} must be a positive integer, got {tokens[pos - 1]!r}")
        return int(v)

    def rank(k: int, tok: str) -> int:
        try:
            v = int(tok)
        except ValueError:
            v = 0
        if not 1 <= v <= n:
            raise InstanceFormatError(
                f"preference sidecar value {k + 1} must be an integer in 1..{n}, got {tok!r}")
        return v

    n = take_count("warehouse count")
    m = take_count("customer count")
    f = []
    for j in range(n):
        take("capacity")  # may be the literal word "capacity"
        f.append(take_cost(f"fixed cost of warehouse {j + 1}"))
    c = []
    for i in range(m):
        take_float(f"demand of customer {i + 1}")
        c.append([take_cost(f"allocation cost ({i + 1}, {j + 1})") for j in range(n)])
    if pos != len(tokens):
        raise InstanceFormatError(
            f"unexpected {tokens[pos]!r} after the allocation costs of customer {m}")

    prows = preferences.split()
    if len(prows) != m * n:
        raise InstanceFormatError(
            f"preference sidecar has {len(prows)} values, expected {m * n}"
        )
    p = np.array([rank(k, t) for k, t in enumerate(prows)], dtype=np.int64).reshape(m, n)
    bad = np.flatnonzero((np.sort(p, axis=1) != np.arange(1, n + 1)).any(axis=1))
    if bad.size:
        raise InstanceFormatError(
            f"preference sidecar row {bad[0] + 1} is not a permutation of 1..{n}")
    return Instance(f=np.array(f), c=np.array(c), p=p, name=name)


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "GeneratorConfig",
    "Instance",
    "InstanceFormatError",
    "facility_sort_keys",
    "generate_instance",
    "parse_instance",
    "parse_orlib",
    "write_instance",
]
