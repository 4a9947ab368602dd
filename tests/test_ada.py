import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splpo import (
    AdaConfig,
    PRESETS,
    ProblemSpec,
    ada,
    branch_and_bound,
    brute_force,
    check_feasible,
    dual_ascent,
    generate_instance,
    heuristic_hc,
    preset_config,
    vfh,
)
from splpo.ada import PS, VFH_ITER

from conftest import cheap_open_instance, random_instance


def test_vfh_toy_fixes_cheaper_key(toy):
    sol = vfh(toy, [0, 1])
    # keys: site 1 -> 12, site 2 -> 9; ceil(0.25 * 2) = 1 fix, so site 2
    assert sol.provenance["fixed_open"] == [2]
    assert sol.objective == 8.0
    assert not sol.provenance["heuristic"]


def test_vfh_counts_each_site_once():
    # k counts distinct sites: {3, 5} gives ceil(0.25 * 2) = 1 fix. Counting
    # the five listed ids would give ceil(0.25 * 5) = 2, fixing site 3 too.
    inst = generate_instance(60, 40, 1)
    once = vfh(inst, [3, 5])
    assert once.provenance["fixed_open"] == [6]
    repeated = vfh(inst, [3] * 4 + [5])
    assert repeated == once
    assert repeated.provenance == once.provenance


def test_vfh_empty_input_solves_unrestricted(toy):
    sol = vfh(toy, [])
    assert sol.objective == 8.0
    assert sol.provenance["fixed_open"] == []


@pytest.mark.parametrize("bad", [99, 1.5, True, -1])
def test_vfh_rejects_ids_that_are_not_sites(toy, bad):
    with pytest.raises(ValueError, match=rf"\[{bad!r}\].*not sites"):
        vfh(toy, [0, bad])


def test_vfh_flags_incomplete_engine():
    # Cheap opening, so that the preference bound does not settle the search
    # at its first node.
    inst = cheap_open_instance(1, m_range=(10, 10), n_range=(10, 10))
    full = vfh(inst, [0, 1, 2])
    capped = vfh(inst, [0, 1, 2], node_limit=1)
    assert not full.provenance["heuristic"]
    assert capped.provenance["heuristic"]
    assert capped.objective >= full.objective


@pytest.mark.parametrize(
    "make, sg_iter, da_iter, status, repeated",
    [
        # DA takes two steps here, so it is done within da_iter=5, and round
        # 1 repeats round 0's input; with da_iter=0 each round takes one of
        # the two steps, so the inputs differ.
        pytest.param(lambda: random_instance(4), 10, 5, "optimal", {1}, id="5-1"),
        pytest.param(lambda: random_instance(4), 10, 0, "optimal", set(), id="0-2"),
        # Two DA steps with da_iter=0 leave DA short of done, and both open
        # nothing, so round 1 repeats round 0's unrestricted solve.
        pytest.param(lambda: generate_instance(40, 25, 1), 50, 0, "iter_limit", {1},
                     id="0-2-empty-twice"),
    ],
)
def test_vfh_solves_each_subproblem_solution_once(
    monkeypatch, make, sg_iter, da_iter, status, repeated
):
    # splpo.ada is rebound to the function, so reach the module itself.
    module = sys.modules["splpo.ada"]
    calls = []

    def counting_vfh(*args, **kwargs):
        calls.append(args)
        return vfh(*args, **kwargs)

    monkeypatch.setattr(module, "vfh", counting_vfh)
    res = ada(make(), AdaConfig(sg_iter=sg_iter, da_iter=da_iter))
    assert res.da_status == status and len(res.da_trace) == 2
    assert len(calls) == VFH_ITER - len(repeated)
    assert [s.provenance["round"] for s in res.vfh_solutions] == [0, 1]
    for round_no in repeated:
        prev, sol = res.vfh_solutions[round_no - 1 : round_no + 1]
        assert sol.objective == prev.objective
        assert sol.open_facilities == prev.open_facilities
        assert {**sol.provenance, "round": None} == {**prev.provenance, "round": None}


def test_time_limit_is_one_budget_for_the_whole_call(monkeypatch):
    # A fake clock that moves only when an engine call returns, one second
    # per call; within a call it stands still, so a call times out only when
    # it is given no time at all.
    clock = [0.0]
    fake_time = SimpleNamespace(monotonic=lambda: clock[0], perf_counter=lambda: clock[0])
    limits = []

    def one_second_engine(*args, time_limit=None, **kwargs):
        limits.append(time_limit)
        res = branch_and_bound(*args, time_limit=time_limit, **kwargs)
        clock[0] += 1.0
        return res

    for name in ("ada", "semilagrange", "exact"):
        monkeypatch.setattr(sys.modules[f"splpo.{name}"], "time", fake_time)
    for name in ("ada", "semilagrange"):
        monkeypatch.setattr(sys.modules[f"splpo.{name}"], "branch_and_bound", one_second_engine)
    inst = generate_instance(40, 25, 1)
    res = ada(inst, AdaConfig(sg_iter=50, da_iter=1, time_limit=2.5))
    # DA step, DA step, VFH solve of the empty set, then a DA step and a VFH
    # solve with no time left. That DA step still ends optimal (its resumed
    # search replays the last frontier and expands no node); the VFH solve
    # stops at its warm start.
    assert limits == [2.5, 1.5, 0.5, 0.0, 0.0]
    assert res.da_status == "optimal" and len(res.da_trace) == 3
    assert [s.provenance["heuristic"] for s in res.vfh_solutions] == [False, True]
    assert max(res.lb_sg, res.lb_da) <= res.best_ub + 1e-9
    assert all(check_feasible(inst, s) == [] for s in res.vfh_solutions)


def test_ada_toy_reaches_optimum(toy):
    res = ada(toy, AdaConfig(sg_iter=10, da_iter=2))
    assert res.best_ub == 8.0
    assert max(res.lb_sg, res.lb_da) <= 8.0 + 1e-9
    assert check_feasible(toy, res.best_solution) == []


def test_preset_values():
    cfg = preset_config((75, 50))
    assert (cfg.sg_iter, cfg.da_iter) == (50, 3)
    assert preset_config((100, 75)).sg_iter == 100
    assert preset_config((125, 100)).da_iter == 10
    assert preset_config((150, 100)).da_iter == 12
    # The paper's variable-fixing schedule, the same at every size.
    assert (VFH_ITER, PS) == (2, 0.25)
    assert AdaConfig.__slots__ == ("sg_iter", "da_iter", "node_limit", "time_limit")


def test_preset_nearest_bucket():
    assert preset_config((70, 50)) is PRESETS[(75, 50)]
    assert preset_config((160, 110)) is PRESETS[(150, 100)]
    assert preset_config([100, 75]) is PRESETS[(100, 75)]


def test_ada_config_validation(toy):
    with pytest.raises(ValueError):
        AdaConfig(sg_iter=-1)
    with pytest.raises(ValueError):
        AdaConfig(time_limit=float("nan"))
    with pytest.raises(ValueError):
        AdaConfig(node_limit=-1)
    # The boundary values stay valid.
    AdaConfig(sg_iter=0, da_iter=0)
    assert dual_ascent(toy, np.zeros(toy.m), max_iter=0).iterations == 0


def _no_engine(*args, **kwargs):
    raise AssertionError("the engine ran before the settings were checked")


@pytest.mark.parametrize("make, name, value", [
    (dual_ascent, "max_iter", -1), (dual_ascent, "max_iter", 1.5),
    (dual_ascent, "max_iter", True),
    (AdaConfig, "sg_iter", True), (AdaConfig, "da_iter", np.float64(2.0)),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_configs_reject_malformed_settings(make, name, value, toy, monkeypatch):
    # Iteration budgets take nonnegative integers only, and each fault is a
    # ValueError naming its setting, raised before any engine call.
    args = (toy, np.zeros(toy.m)) if make is dual_ascent else ()
    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["splpo.semilagrange"], "branch_and_bound", _no_engine)
        with pytest.raises(ValueError, match=name):
            make(*args, **{name: value})
    # numpy integers are accepted.
    make(*args, **{name: np.int64(2)})


@given(st.integers(0, 40))
def test_ada_never_worse_than_hc(seed):
    inst = random_instance(seed, m_max=9, n_max=8)
    hc_sol = heuristic_hc(inst)
    res = ada(inst, AdaConfig(sg_iter=15, da_iter=2))
    assert res.best_ub <= hc_sol.objective + 1e-9


@given(st.integers(0, 30))
def test_ada_brackets_the_optimum(seed):
    inst = random_instance(seed, m_max=9, n_max=8)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    res = ada(inst, AdaConfig(sg_iter=15, da_iter=2))
    # The raw bounds, since best_lb is capped at best_ub.
    assert max(res.lb_sg, res.lb_da) <= opt + 1e-9
    assert res.best_ub >= opt - 1e-9
    for sol in res.vfh_solutions:
        assert check_feasible(inst, sol) == []


@settings(max_examples=12)
@given(st.integers(0, 20))
def test_ada_closes_gap_with_enough_rounds(seed):
    # Dual ascent closes the gap within n + 3 steps, and the fixing rounds
    # then solve the problem with part of its optimal open set forced open.
    inst = random_instance(seed, m_max=7, n_max=6)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    res = ada(inst, AdaConfig(sg_iter=10, da_iter=inst.n + 3))
    assert res.da_status == "optimal"
    assert res.best_ub == pytest.approx(opt, abs=1e-9)


def test_ada_zero_budgets(toy):
    # No warm-up step and no plain ascent stage: the ascent's only steps are
    # the one each fixing round takes.
    res = ada(toy, AdaConfig(sg_iter=0, da_iter=0))
    assert res.sg.iterations == 0
    assert len(res.da_trace) == VFH_ITER
    assert [s.provenance["round"] for s in res.vfh_solutions] == list(range(VFH_ITER))
    assert res.best_ub == 8.0


@pytest.mark.parametrize("make", [lambda: random_instance(15), lambda: cheap_open_instance(9)],
                         ids=["random-15", "cheap-open-9"])
def test_best_lb_never_exceeds_best_ub(make):
    # On these instances the subgradient value rounds a few ulps past the
    # optimum, which ada finds; the bound it reports is capped there.
    res = ada(make())
    assert res.lb_sg > res.best_ub
    assert res.best_lb <= res.best_ub
