import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splpo import (
    UNASSIGNED,
    AdaConfig,
    DualAscent,
    GeneratorConfig,
    Instance,
    ProblemSpec,
    branch_and_bound,
    brute_force,
    check_feasible,
    dual_ascent,
    generate_instance,
)
from splpo import exact
from splpo.exact import _DUAL_GRID, KIND_SLR, _evaluate, _Node, _savings, _savings_dual

from conftest import cheap_open_instance, cost_ceiling, random_instance
from test_semilagrange import tied_instance


def random_threshold_in_box(inst, rng):
    """The slr threshold sum(gamma) at multipliers gamma drawn in the box."""
    low = inst.c.min(axis=1)
    return float((low + rng.random(inst.m) * (cost_ceiling(inst) - low)).sum())


def test_splpo_toy(toy):
    res = branch_and_bound(ProblemSpec.splpo(toy))
    assert res.value == 8
    assert sorted(res.solution.open_facilities) == [1]
    assert res.status == "optimal" and res.lower_bound == 8
    assert check_feasible(toy, res.solution) == []


def test_slr_toy_prefers_empty(toy):
    res = branch_and_bound(ProblemSpec.slr(toy, 5.0))
    assert res.value == 5.0
    assert res.solution.open_facilities == frozenset()


def test_splpo_forced_open(toy):
    res = branch_and_bound(ProblemSpec.splpo(toy, forced_open=[0]))
    assert res.value == 8
    assert res.solution.open_facilities == frozenset({0, 1})


def test_brute_force_toy(toy):
    assert brute_force(ProblemSpec.splpo(toy)).value == 8
    assert brute_force(ProblemSpec.slr(toy, float(cost_ceiling(toy).sum()))).value == 8


def test_brute_force_uniform_instance():
    inst = Instance(
        f=np.ones(4),
        c=np.ones((3, 4)),
        p=np.array([[1, 2, 3, 4], [2, 1, 4, 3], [4, 3, 2, 1]]),
    )
    res = brute_force(ProblemSpec.splpo(inst))
    assert res.value == 3 * 1 + 1
    assert len(res.solution.open_facilities) == 1


def test_brute_force_site_cap():
    inst = generate_instance(2, 21, 1)  # one site past the cap, so nothing is enumerated
    with pytest.raises(ValueError, match="limited"):
        brute_force(ProblemSpec.splpo(inst))


@pytest.mark.parametrize("make, match", [
    (lambda inst: ProblemSpec.slr(inst, math.nan), "finite threshold"),
    (lambda inst: ProblemSpec.slr(inst, math.inf), "finite threshold"),
    (lambda inst: ProblemSpec.slr(inst, -math.inf), "finite threshold"),
    (lambda inst: ProblemSpec.slr(inst, True), "finite threshold"),
    (lambda inst: ProblemSpec.slr(inst, "1.0"), "finite threshold"),
    (lambda inst: ProblemSpec.slr(inst, np.full(inst.m, 2.5)), "finite threshold"),
    (lambda inst: ProblemSpec(kind=KIND_SLR, inst=inst), "finite threshold"),
    (lambda inst: ProblemSpec(kind="splpo", inst=inst, threshold=1.0), "only valid for the slr"),
], ids=["nan", "inf", "-inf", "bool", "string", "array", "missing", "splpo"])
def test_slr_threshold_is_one_finite_number(make, match):
    inst = generate_instance(5, 4, 1)
    with pytest.raises(ValueError, match=match):
        make(inst)
    spec = ProblemSpec.slr(inst, np.float64(2.5))
    assert type(spec.threshold) is float and spec.threshold == 2.5


@given(st.integers(0, 400))
def test_engines_agree_on_splpo(seed):
    inst = random_instance(seed)
    a = branch_and_bound(ProblemSpec.splpo(inst))
    b = brute_force(ProblemSpec.splpo(inst))
    assert a.value == b.value
    assert check_feasible(inst, a.solution) == []


@given(st.integers(0, 200))
def test_engines_agree_on_slr(seed):
    inst = random_instance(seed, m_max=7, n_max=7)
    rng = np.random.default_rng(seed + 9999)
    threshold = random_threshold_in_box(inst, rng)
    a = branch_and_bound(ProblemSpec.slr(inst, threshold))
    b = brute_force(ProblemSpec.slr(inst, threshold))
    assert a.value == b.value


@given(st.integers(0, 100))
def test_engines_agree_with_forced_open(seed):
    inst = random_instance(seed, m_max=6, n_max=6)
    rng = np.random.default_rng(seed + 3)
    forced = rng.choice(inst.n, size=int(rng.integers(1, 3)), replace=False).tolist()
    a = branch_and_bound(ProblemSpec.splpo(inst, forced_open=forced))
    b = brute_force(ProblemSpec.splpo(inst, forced_open=forced))
    assert a.value == b.value
    assert set(forced) <= a.solution.open_facilities


def _agree_with_brute_force(inst, seed):
    """Both engines on splpo, forced-open splpo and slr specs of one instance."""
    rng = np.random.default_rng(seed)
    forced = rng.choice(inst.n, size=int(rng.integers(1, min(inst.n, 2) + 1)), replace=False)
    specs = (
        ProblemSpec.splpo(inst),
        ProblemSpec.splpo(inst, forced_open=forced.tolist()),
        ProblemSpec.slr(inst, random_threshold_in_box(inst, rng)),
    )
    for spec in specs:
        a = branch_and_bound(spec)
        assert a.value == brute_force(spec).value, spec.kind
        assert a.status == "optimal" and a.lower_bound == a.value
        if a.solution.open_facilities:
            assert check_feasible(inst, a.solution) == []


@given(st.integers(0, 400))
def test_engines_agree_on_tied_costs(seed):
    _agree_with_brute_force(tied_instance(seed), seed)


@given(st.integers(0, 400))
def test_engines_agree_on_non_integer_costs(seed):
    _agree_with_brute_force(cheap_open_instance(seed, m_range=(2, 8), n_range=(2, 8)), seed)


@pytest.mark.parametrize("seed, optimum", [(1, 55923.0), (3, 56621.0)])
def test_closes_cheap_opening_uniform_instances(seed, optimum):
    # Uniform preferences with cheap opening: optima open three facilities,
    # and a node bound that ignores preferences does not finish in a minute.
    inst = generate_instance(40, 25, seed, GeneratorConfig(open_range=(500, 1000)))
    res = branch_and_bound(ProblemSpec.splpo(inst), node_limit=5000)
    assert (res.status, res.value, res.lower_bound) == ("optimal", optimum, optimum)
    assert check_feasible(inst, res.solution) == []


def test_closes_100x75_within_a_thousand_nodes():
    inst = generate_instance(100, 75, 1)
    res = branch_and_bound(ProblemSpec.splpo(inst), node_limit=1000)
    assert (res.status, res.value) == ("optimal", 153855.0)


def test_savings_dual_closes_a_three_facility_cost_consistent_instance():
    # The optimum opens three facilities; the preference bound alone needs
    # 1,445 nodes, the savings-dual bound 227.
    cfg = GeneratorConfig(mode="cost-consistent", open_range=(4000, 6000))
    inst = generate_instance(60, 40, 1, cfg)
    res = branch_and_bound(ProblemSpec.splpo(inst), node_limit=400)
    assert (res.status, res.value) == ("optimal", 84622.0)
    assert len(res.solution.open_facilities) == 3


def test_savings_dual_grid_closes_the_largest_paper_class_within_2000_nodes():
    # The grid sits where the minimum of D falls: with t = 1/9 ... 8/9 this
    # search needed 3,301 nodes, with t spread over [0.2, 0.7] it needs 1,639.
    inst = generate_instance(150, 100, 1, GeneratorConfig(mode="cost-consistent"))
    full = branch_and_bound(ProblemSpec.splpo(inst))
    capped = branch_and_bound(ProblemSpec.splpo(inst), node_limit=2000)
    assert (capped.status, capped.value) == ("optimal", full.value)


def test_node_limit_keeps_bound_valid():
    inst = random_instance(77, m_max=10, n_max=10)
    full = branch_and_bound(ProblemSpec.splpo(inst))
    capped = branch_and_bound(ProblemSpec.splpo(inst), node_limit=3)
    assert capped.status == "incomplete"
    assert capped.nodes <= 3
    assert capped.lower_bound <= full.value <= capped.value
    assert capped.lower_bound <= capped.value


def test_time_limit_trips():
    inst = random_instance(78, m_max=10, n_max=10)
    res = branch_and_bound(ProblemSpec.splpo(inst), time_limit=0.0)
    assert res.status == "incomplete"


@pytest.mark.parametrize(
    "limit",
    [{"time_limit": math.nan}, {"time_limit": -0.5}, {"time_limit": "1"}, {"time_limit": True},
     {"node_limit": -1}, {"node_limit": True}, {"node_limit": 2.5}, {"node_limit": 3.0},
     {"node_limit": "3"}],
    ids=["nan-time", "negative-time", "string-time", "bool-time", "negative-nodes",
         "bool-nodes", "fractional-nodes", "float-nodes", "string-nodes"],
)
def test_malformed_limits_are_rejected(limit):
    inst = random_instance(3)
    for spec in (ProblemSpec.splpo(inst), ProblemSpec.slr(inst, float(np.ones(inst.m).sum()))):
        with pytest.raises(ValueError, match=next(iter(limit))):
            branch_and_bound(spec, **limit)
    zeros = np.zeros(inst.m)
    for make in (AdaConfig, lambda **kw: dual_ascent(inst, zeros, **kw),
                 lambda **kw: DualAscent(inst, zeros, **kw)):
        with pytest.raises(ValueError, match=next(iter(limit))):
            make(**limit)


def test_numpy_limits_are_accepted():
    inst = generate_instance(8, 6, 3)
    res = branch_and_bound(ProblemSpec.splpo(inst), node_limit=np.int64(3),
                           time_limit=np.float64(60.0))
    assert res.nodes <= 3


@pytest.mark.parametrize("member", [True, np.True_, 1.5, 2.0, -1, 4],
                         ids=["bool", "numpy-bool", "fraction", "float", "negative", "too-large"])
def test_forced_open_takes_only_facility_indices(member):
    # Unchecked, True passed the range check and, used as a mask index, forced
    # every facility open, and 1.5 failed later with an IndexError.
    inst = generate_instance(5, 4, 1)
    with pytest.raises(ValueError, match="forced_open"):
        ProblemSpec(kind="splpo", inst=inst, forced_open=frozenset({member}))
    with pytest.raises(ValueError, match="forced_open"):
        ProblemSpec.splpo(inst, forced_open=[member])


@pytest.mark.parametrize("member, expected", [
    (np.array(2), {2}), (np.int64(2), {2}), (np.uint8(2), {2}),
    (np.array(True), None), (np.array(2.0), None), (False, None), (2.0, None),
], ids=["0-d-int", "int64", "uint8", "0-d-bool", "0-d-float", "bool", "float"])
def test_both_constructors_check_forced_open_members_before_hashing(member, expected):
    # ProblemSpec.splpo used to build a frozenset first, so a 0-d array (which
    # is not hashable) raised TypeError there but was accepted by ProblemSpec.
    inst = generate_instance(5, 4, 1)
    for make in (lambda: ProblemSpec.splpo(inst, forced_open=[member]),
                 lambda: ProblemSpec(kind="splpo", inst=inst, forced_open=[member])):
        if expected is None:
            with pytest.raises(ValueError, match="forced_open"):
                make()
        else:
            spec = make()
            assert spec.forced_open == frozenset(expected)
            assert {type(j) for j in spec.forced_open} == {int}


def test_forced_open_takes_numpy_integers():
    inst = generate_instance(5, 4, 1)
    spec = ProblemSpec(kind="splpo", inst=inst, forced_open=frozenset({np.int64(1)}))
    assert spec.forced_open == frozenset({1})
    res = branch_and_bound(spec)
    assert res.value == brute_force(ProblemSpec.splpo(inst, forced_open=[1])).value
    assert 1 in res.solution.open_facilities


@pytest.mark.parametrize("limit", [{"node_limit": 0}, {"time_limit": 0.0}])
def test_splpo_always_returns_a_solution(limit):
    # Every spec has a warm start evaluated before the first limit check (the
    # greedy open set plus the forced facilities for splpo, the empty set for
    # slr), so even a search stopped at once hands back a feasible incumbent.
    inst = generate_instance(8, 6, 3)
    threshold = float(cost_ceiling(inst).sum())
    cases = [
        (ProblemSpec.splpo(inst), 20684.0, {3}),
        (ProblemSpec.splpo(inst, forced_open=[2]), 32417.0, {2}),
        (ProblemSpec.slr(inst, threshold), threshold, set()),
    ]
    for spec, value, opened in cases:
        res = branch_and_bound(spec, **limit)
        assert res.status == "incomplete"
        assert res.solution.objective == res.value == value
        assert opened <= res.solution.open_facilities
        if spec.kind == KIND_SLR:
            assert res.solution.open_facilities == frozenset()
            assert (res.solution.assign == UNASSIGNED).all()
        else:
            assert check_feasible(inst, res.solution) == []


@pytest.mark.parametrize("limit", [{"node_limit": 0}, {"time_limit": 0.0}])
def test_search_stopped_at_the_root_reports_the_root_bound(limit):
    # The root is never evaluated, yet its bound is one pass over the data.
    inst = generate_instance(8, 6, 3)
    threshold = float((cost_ceiling(inst) * 0.9).sum())
    for spec in (ProblemSpec.splpo(inst), ProblemSpec.splpo(inst, forced_open=[2]),
                 ProblemSpec.slr(inst, threshold)):
        res = branch_and_bound(spec, **limit)
        opt = brute_force(spec).value
        assert res.status == "incomplete" and res.nodes == 0
        assert math.isfinite(res.lower_bound) and 0 < res.lower_bound <= opt
        if spec.kind == KIND_SLR:
            assert res.lower_bound <= threshold


def _subtree_minimum(spec, open_mask, closed_mask):
    """Exhaustively evaluate every completion of a node's partial decision."""
    n = spec.inst.n
    undecided = [j for j in range(n) if not open_mask[j] and not closed_mask[j]]
    best = math.inf
    for bits in itertools.product((False, True), repeat=len(undecided)):
        mask = open_mask.copy()
        for j, b in zip(undecided, bits):
            mask[j] = b
        if mask.any() or spec.kind == KIND_SLR:
            best = min(best, _evaluate(spec, mask)[0])
    return best


@pytest.mark.parametrize("kind", ["splpo", "slr"])
def test_node_bounds_are_valid(kind):
    for seed in range(8):
        inst = random_instance(seed, m_max=4, n_max=5)
        if kind == "slr":
            rng = np.random.default_rng(seed)
            spec = ProblemSpec.slr(inst, random_threshold_in_box(inst, rng))
        else:
            spec = ProblemSpec.splpo(inst)
        records = []
        branch_and_bound(spec, on_node=lambda *a: records.append(a))
        assert records
        for _, open_mask, closed_mask, bound, _ in records:
            true_min = _subtree_minimum(spec, open_mask, closed_mask)
            assert bound <= true_min + 1e-9


_SAVING = st.floats(0.0, 100.0)


@settings(max_examples=300)
@given(st.data())
def test_savings_dual_covers_every_set_of_facilities(data):
    # The lemma behind the savings-dual bound: for savings rows s >= 0,
    # opening costs f > 0 and any weights w >= 0, D(w) is at least the net
    # saving of the best set S of facilities, sum_i max_{k in S} s[k, i] -
    # f(S) (0 for the empty set). m runs past 8, where numpy's sums switch
    # from plain order to 8-way pairwise blocks.
    K, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 70))
    s = np.array(data.draw(st.lists(st.lists(_SAVING, min_size=m, max_size=m),
                                    min_size=K, max_size=K)))
    f = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=K, max_size=K)))
    free = np.array(data.draw(st.lists(_SAVING, min_size=m, max_size=m)))
    cap = s.max(axis=0)
    grid = np.maximum(cap - _DUAL_GRID[:, None] * cap.max(), 0.0)
    w = np.vstack([free, grid, np.zeros(m), cap])
    best = max(
        float(s[list(S)].max(axis=0).sum() - f[list(S)].sum()) if S else 0.0
        for r in range(K + 1)
        for S in itertools.combinations(range(K), r)
    )
    dual = _savings_dual(s, f, w)
    # Each row is the D(w) of that weight vector alone, bit for bit.
    assert dual.tobytes() == np.array([_reference_dual(s, f, row) for row in w]).tobytes()
    assert (dual >= best - 1e-9 * (1.0 + abs(best))).all()
    # In particular D(w) is at least every single facility's net saving, the
    # premise on which the engine skips the bound where value minus the
    # largest of them lies below the incumbent.
    single = float((s.sum(axis=1) - f).max())
    assert (_savings_dual(s, f, w) >= single - 1e-9 * (1.0 + abs(single))).all()
    # A facility whose savings do not pay its opening cost adds nothing to D.
    for k in np.flatnonzero(s.sum(axis=1) - f <= 0.0):
        assert (_savings_dual(s[[k]], f[[k]], w) == w.sum(axis=1)).all()


def _reference_savings(inst, open_mask):
    """Each customer's cost at its server, each facility's savings row and their sums
    (the preference gains), from scratch."""
    p, c, rows = inst.p, inst.c, np.arange(inst.m)
    opened = np.flatnonzero(open_mask)
    server = np.array([min(opened, key=lambda k: p[i, k]) for i in range(inst.m)])
    a = c[rows, server]
    server_rank = p[rows, server]
    savings = np.array([
        np.where(p[:, k] < server_rank, np.maximum(a - c[:, k], 0.0), 0.0)
        for k in range(inst.n)
    ])
    return a, savings, np.array([row.sum() for row in savings])


def _reference_dual(s, f, w) -> float:
    """D(w) of the engine's savings-dual bound, one weight vector at a time."""
    credit = np.array([max(float(np.maximum(row - w, 0.0).sum()) - fk, 0.0)
                       for row, fk in zip(s, f)])
    return float(w.sum()) + float(credit.sum())


@pytest.mark.parametrize("seed", range(12))
def test_savings_rows_equal_the_reference_byte_for_byte(seed):
    # Few distinct costs give ties, and signed zeros check that every zero
    # saving comes out as +0.0, from scratch and in an open child.
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 30)), int(rng.integers(2, 12))
    base = generate_instance(m, n, seed)
    c = rng.choice(np.array([-0.0, 0.0, 1.0, 2.5, 4.0]), size=(m, n))
    inst = Instance(f=base.f, c=c, p=base.p)
    closed = np.zeros(n, dtype=bool)
    for _ in range(10):
        open_mask = rng.random(n) < 0.3
        open_mask[rng.integers(n)] = True
        node = _Node.from_masks(inst, open_mask, closed)
        savings = _savings(node.a, node.rank, inst)
        assert savings.tobytes() == _reference_savings(inst, open_mask)[1].tobytes()
        for j in np.flatnonzero(~open_mask)[:1]:
            child = node.open_child(inst, j)
            assert child.savings.tobytes() == _reference_savings(inst, child.open)[1].tobytes()


def _reference_bound(spec, open_mask, closed_mask, incumbent, guard=True) -> float:
    """The engine's node bound, rebuilt from scratch out of the node's decisions.

    The savings-dual part is taken only while the other two lie below
    incumbent and, with guard, where value minus the largest net gain of an
    undecided facility reaches incumbent, as the engine takes it.
    """
    inst = spec.inst
    cmin = np.min(np.where(closed_mask[None, :], np.inf, inst.c), axis=1)
    fopen = float(inst.f[open_mask].sum())
    bound = fopen + float(cmin.sum()) if np.isfinite(cmin).all() else math.inf
    if not open_mask.any():
        # For slr the empty set, at the threshold, is one of the leaves below.
        return min(spec.threshold, bound) if spec.kind == KIND_SLR else bound
    a, savings, gain = _reference_savings(inst, open_mask)
    value = fopen + float(a.sum())
    undecided = ~(open_mask | closed_mask)
    credit = np.where(undecided, np.maximum(gain - inst.f, 0.0), 0.0)
    bound = max(bound, value - float(credit.sum()))
    net = gain - inst.f
    live = undecided & (net > 0.0)
    if bound < incumbent and live.any() and (not guard or value - net[live].max() >= incumbent):
        s = savings[live]
        cap = s.max(axis=0)
        dual = min(_reference_dual(s, inst.f[live],
                                   np.maximum(cap - (14 + 5 * g) / 70 * cap.max(), 0.0))
                   for g in range(8))
        bound = max(bound, value - dual)
    return bound


def _float_specs(seed):
    """Three problem kinds on one instance with non-integer costs.

    Integer-valued costs would sum exactly in any order, so they could not
    show a bound whose float sums were reordered.
    """
    rng = np.random.default_rng(seed)
    base = generate_instance(40, 16, seed)
    inst = Instance(
        f=base.f * rng.uniform(0.05, 0.15, base.n) + rng.random(base.n),
        c=base.c + rng.random((base.m, base.n)),
        p=base.p,
        name=f"float{seed}",
    )
    rng = np.random.default_rng(seed + 1)
    return {
        "splpo": ProblemSpec.splpo(inst),
        "splpo_forced": ProblemSpec.splpo(inst, forced_open=[seed % inst.n]),
        "slr": ProblemSpec.slr(inst, random_threshold_in_box(inst, rng)),
    }


# Nodes each spec takes under the branching rule on gain[k] - f[k] (see
# test_branching_follows_net_saving) with the from-scratch bounds above: the
# same rule and an identical bound sequence must give an identical search
# tree.
RECORDED_NODES = {
    0: {"splpo": 415, "splpo_forced": 137, "slr": 415},
    1: {"splpo": 367, "splpo_forced": 151, "slr": 501},
    2: {"splpo": 363, "splpo_forced": 123, "slr": 363},
    3: {"splpo": 409, "splpo_forced": 339, "slr": 409},
}


@pytest.mark.parametrize("seed", sorted(RECORDED_NODES))
def test_node_bounds_equal_reference(seed):
    for kind, spec in _float_specs(seed).items():
        mismatches, flips = [], []

        def check(depth, open_mask, closed_mask, bound, incumbent):
            expected = _reference_bound(spec, open_mask, closed_mask, incumbent)
            if bound != expected:
                mismatches.append((depth, open_mask, closed_mask, bound, expected))
            # The guard skips the savings-dual bound only where it cannot prune.
            full = _reference_bound(spec, open_mask, closed_mask, incumbent, guard=False)
            if (bound >= incumbent) != (full >= incumbent):
                flips.append((depth, open_mask, closed_mask, bound, full))

        res = branch_and_bound(spec, on_node=check)
        assert mismatches == [], kind
        assert flips == [], kind
        assert res.nodes == RECORDED_NODES[seed][kind], kind


def _same_bits(x, y) -> bool:
    if x is None or y is None:
        return x is y
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _tied_instance(seed):
    """A 40x16 instance with integer costs 1..3, whose facilities tie on the
    cost of opening each alone, which fixes the order of the nothing-open
    chain."""
    tied = generate_instance(40, 16, seed, GeneratorConfig(cost_range=(1, 3), open_range=(1, 3)))
    alone = tied.f + tied.c.sum(axis=0)
    assert np.unique(alone).size < tied.n
    return tied


@pytest.mark.parametrize("seed", sorted(RECORDED_NODES))
def test_handed_down_state_equals_its_rebuild(monkeypatch, seed):
    # A resumed search rebuilds pruned nodes from their masks, so the state a
    # node inherits must be exactly the one from_masks computes.
    seen = []
    bound = _Node.bound

    def recording(node, inst, incumbent, keep=False):
        seen.append((inst, node))
        return bound(node, inst, incumbent, keep)

    monkeypatch.setattr(_Node, "bound", recording)
    specs = _float_specs(seed)
    # Customers tie on their cheapest cost, so the chain's rows must be read
    # at the right depth.
    specs["integer"] = ProblemSpec.splpo(_tied_instance(seed))
    counts = {}
    for kind, spec in specs.items():
        branch_and_bound(spec)
        counts[kind] = len(seen) - sum(counts.values())
    prev = None
    for spec in _slr_chain(specs["slr"].inst):
        fresh_nodes = len(seen)
        res = branch_and_bound(spec, resume=prev)
        if prev is None:
            del seen[fresh_nodes:]  # the chain's first search starts from the root
        if res.frontier is None:
            break
        prev = res
    counts["resumed"] = len(seen) - sum(counts.values())
    assert min(counts.values()) > 0, counts
    for inst, node in seen:
        fresh = _Node.from_masks(inst, node.open, node.closed)
        for name in ("a", "value", "rank", "savings", "gain", "fopen", "cmin", "served"):
            assert _same_bits(getattr(node, name), getattr(fresh, name)), name
        if node.value is not None:
            price = _evaluate(ProblemSpec.splpo(inst), node.open)[0]
            assert _same_bits(node.value, price)  # the set's price


def _rule_choice(inst, open_mask, closed_mask) -> int:
    """The facility the branching rule picks at a node, from scratch."""
    undecided = ~(open_mask | closed_mask)
    if not open_mask.any():
        alone = inst.f + inst.c.sum(axis=0)
        return min(np.flatnonzero(undecided), key=lambda j: (alone[j], j))
    _, _, gain = _reference_savings(inst, open_mask)
    net = np.where(undecided, gain - inst.f, -np.inf)
    return int(np.argmax(net))


@pytest.mark.parametrize("seed", sorted(RECORDED_NODES))
def test_branching_follows_net_saving(seed):
    specs = _float_specs(seed)
    specs["integer"] = ProblemSpec.splpo(_tied_instance(seed))  # ties go to the lower index
    for kind, spec in specs.items():
        records = []
        branch_and_bound(spec, on_node=lambda *a: records.append(a))
        checked = 0
        for parent, child in zip(records, records[1:]):
            added = np.flatnonzero(child[1] & ~parent[1])
            if (
                child[0] == parent[0] + 1
                and np.array_equal(child[2], parent[2])
                and child[1].sum() == parent[1].sum() + 1
                and added.size == 1
            ):
                assert added[0] == _rule_choice(spec.inst, parent[1], parent[2]), kind
                checked += 1
        assert checked > 0, kind


def test_incumbent_is_monotone():
    inst = random_instance(5, m_max=8, n_max=8)
    seen = []
    branch_and_bound(ProblemSpec.splpo(inst), on_node=lambda *a: seen.append(a[4]))
    finite = [v for v in seen if v < math.inf]
    assert all(b <= a + 1e-12 for a, b in zip(finite, finite[1:]))


def _empty_slr_result(inst):
    """An optimal slr search that ends at the empty set."""
    threshold = float((inst.c.min(axis=1) * 0.5).sum())
    res = branch_and_bound(ProblemSpec.slr(inst, threshold))
    assert res.solution.open_facilities == frozenset() and res.frontier is not None
    return res, threshold


def test_resume_rejects_what_it_cannot_continue():
    inst = generate_instance(8, 6, 4)
    prev, threshold = _empty_slr_result(inst)
    cp = float(cost_ceiling(inst).sum())
    with pytest.raises(ValueError, match="threshold >="):
        branch_and_bound(ProblemSpec.slr(inst, threshold * 0.5), resume=prev)
    with pytest.raises(ValueError, match="another instance"):
        other = generate_instance(8, 6, 5)
        branch_and_bound(ProblemSpec.slr(other, cp), resume=prev)
    with pytest.raises(ValueError, match="forced"):
        ProblemSpec(kind=KIND_SLR, inst=inst, threshold=cp, forced_open=frozenset({0}))
    non_empty = branch_and_bound(ProblemSpec.slr(inst, cp))
    assert non_empty.solution.open_facilities and non_empty.frontier is None
    incomplete = branch_and_bound(ProblemSpec.slr(inst, threshold), node_limit=0)
    assert incomplete.status == "incomplete" and incomplete.frontier is None
    splpo = branch_and_bound(ProblemSpec.splpo(inst))
    for bad, match in ((non_empty, "empty set"), (incomplete, "incomplete"), (splpo, "empty set")):
        with pytest.raises(ValueError, match=match):
            branch_and_bound(ProblemSpec.slr(inst, cp), resume=bad)
    # Only an slr search has a threshold to continue at.
    for spec in (ProblemSpec.splpo(inst), ProblemSpec.splpo(inst, forced_open=[0])):
        with pytest.raises(ValueError, match="resume needs an slr spec"):
            branch_and_bound(spec, resume=prev)


def _slr_chain(inst):
    """slr specs at sum(gamma), gamma rising from the cheapest costs towards the ceiling."""
    low, cp = inst.c.min(axis=1), cost_ceiling(inst)
    for t in np.linspace(0.0, 0.3, 31):
        yield ProblemSpec.slr(inst, float((low + t * (cp - low)).sum()))


@pytest.mark.parametrize("case", ["float0", "float1", "float2", "float3", "int1", "int2", "int3"])
def test_resumed_search_equals_a_fresh_one(case):
    # Each search resumes the last one while it ends at the empty set.
    seed = int(case[-1])
    if case.startswith("float"):
        inst = _float_specs(seed)["slr"].inst
    else:
        inst = cheap_open_instance(seed, integer=True, m_range=(16, 16), n_range=(10, 10))
    prev, total, steps = None, 0, 0
    for spec in _slr_chain(inst):
        fresh = branch_and_bound(spec)
        res = branch_and_bound(spec, resume=prev)
        total += res.nodes
        steps += 1
        assert (res.value, res.status, res.lower_bound) == (
            fresh.value, fresh.status, fresh.lower_bound)
        assert res.solution.open_facilities == fresh.solution.open_facilities
        assert np.array_equal(res.solution.assign, fresh.solution.assign)
        # The chain evaluates exactly the nodes of one fresh search.
        assert total == fresh.nodes
        if res.frontier is None:
            break
        prev = res
    assert res.solution.open_facilities and steps > 5


def _chain_case(case):
    """The instance of a case of the two tests below."""
    if case.startswith("float"):
        return _float_specs(int(case[-1]))["slr"].inst
    return cheap_open_instance(3, integer=True, m_range=(30, 30), n_range=(14, 14))


@pytest.mark.parametrize("case", ["float0", "float1", "int3"])
def test_resumed_searches_bound_only_what_they_evaluate(monkeypatch, case):
    # A resumed search never bounds a frontier entry again: it rebuilds one
    # only to expand it, where its stored bound lies below the threshold.
    inst = _chain_case(case)
    calls = {"bound": 0}
    rebuilt = []
    bound, from_masks = _Node.bound, _Node.from_masks

    def counted_bound(node, inst, incumbent, keep=False):
        calls["bound"] += 1
        return bound(node, inst, incumbent, keep)

    def counted_from_masks(inst, open_mask, closed_mask):
        rebuilt.append((open_mask.tobytes(), closed_mask.tobytes()))
        return from_masks(inst, open_mask, closed_mask)

    monkeypatch.setattr(_Node, "bound", counted_bound)
    monkeypatch.setattr(_Node, "from_masks", staticmethod(counted_from_masks))
    prev, total = None, 0
    for spec in _slr_chain(inst):
        bounded = calls["bound"]
        del rebuilt[:]
        res = branch_and_bound(spec, resume=prev)
        assert calls["bound"] - bounded == res.nodes
        if prev is None:
            assert res.rebuilt == 0 and len(rebuilt) == 1  # the root
        else:
            assert res.rebuilt == len(rebuilt)
            stored = {(e[2].tobytes(), e[3].tobytes()): e[0]
                      for e in prev.frontier.entries if len(e) == 5}
            assert all(stored[key] < spec.threshold for key in rebuilt)
            total += res.rebuilt
        if res.frontier is None:
            break
        prev = res
    assert res.solution.open_facilities and total > 0


@pytest.mark.parametrize("case", ["float0", "float1", "int3"])
def test_stored_bounds_are_final(case):
    # A pruned entry's stored bound reaches every later threshold exactly
    # where the bound of the node, taken afresh at that threshold, does; so
    # a resumed search prunes a stored node as a fresh search would.
    specs = list(_slr_chain(_chain_case(case)))
    prev, checked, mismatches = None, 0, []
    for step, spec in enumerate(specs):
        res = branch_and_bound(spec, resume=prev)
        if res.frontier is None:
            break
        inst = spec.inst
        for entry in res.frontier.entries:
            if len(entry) == 2:
                continue  # a rejected set, whose value holds at any threshold
            stored, _, open_mask, closed_mask, _ = entry
            node = _Node.from_masks(inst, open_mask, closed_mask)
            for later in specs[step + 1:]:
                threshold = later.threshold
                if (stored >= threshold) != (node.bound(inst, threshold)[0] >= threshold):
                    mismatches.append((step, threshold, stored))
                checked += 1
        prev = res
    assert checked > 0 and mismatches == [], f"{len(mismatches)} of {checked}"


def test_rebuilt_is_left_out_of_repr_and_equality():
    inst = cheap_open_instance(3, integer=True, m_range=(30, 30), n_range=(14, 14))
    prev = None
    for spec in _slr_chain(inst):
        res = branch_and_bound(spec, resume=prev)
        if res.rebuilt:
            break
        prev = res
    assert res.rebuilt > 0 and "rebuilt" not in repr(res)
    same = exact.ExactResult(res.value, res.solution, res.status, res.lower_bound, res.nodes)
    assert same == res and repr(same) == repr(res)


def test_node_limit_in_a_resumed_search_keeps_bound_valid():
    # The last frontier before the search opens something holds over a
    # hundred entries, and the search resumed from it takes more than 50 nodes.
    inst = cheap_open_instance(3, integer=True, m_range=(30, 30), n_range=(14, 14))
    prev = None
    for spec in _slr_chain(inst):
        fresh = branch_and_bound(spec)
        if fresh.frontier is None:
            break
        prev = branch_and_bound(spec, resume=prev)
    assert len(prev.frontier.entries) > 100
    opt = fresh.value
    for limit in (0, 1, 5, 50):
        res = branch_and_bound(spec, node_limit=limit, resume=prev)
        assert res.status == "incomplete" and res.nodes == limit
        assert res.lower_bound <= opt <= res.value
