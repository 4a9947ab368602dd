import sys

import pytest
from hypothesis import given, settings, strategies as st

from splpo import (
    AdaConfig,
    PRESETS,
    ProblemSpec,
    ada,
    ada_table_row,
    brute_force,
    check_feasible,
    heuristic_hc,
    preset_config,
    vfh,
)

from conftest import random_instance


def test_vfh_toy_fixes_cheaper_key(toy):
    sol = vfh(toy, [0, 1], ps=0.5)
    # keys: site 1 -> 12, site 2 -> 9; ceil(0.5 * 2) = 1 fix, so site 2
    assert sol.provenance["fixed_open"] == [2]
    assert sol.objective == 8.0
    assert not sol.provenance["heuristic"]


def test_vfh_ps_extremes(toy):
    loose = vfh(toy, [0, 1], ps=0.0)
    assert loose.provenance["fixed_open"] == []
    assert loose.objective == 8.0
    tight = vfh(toy, [0, 1], ps=1.0)
    assert tight.provenance["fixed_open"] == [1, 2] or set(
        tight.provenance["fixed_open"]
    ) == {1, 2}
    assert tight.open_facilities == frozenset({0, 1})


def test_vfh_empty_input_solves_unrestricted(toy):
    sol = vfh(toy, [], ps=0.5)
    assert sol.objective == 8.0
    assert sol.provenance["fixed_open"] == []


def test_vfh_flags_incomplete_engine():
    inst = random_instance(7)
    full = vfh(inst, [0, 1, 2], ps=0.5)
    capped = vfh(inst, [0, 1, 2], ps=0.5, node_limit=1)
    assert capped.provenance["heuristic"]
    assert capped.objective >= full.objective


@pytest.mark.parametrize("da_iter, solves", [(5, 1), (0, 2)])
def test_vfh_solves_each_subproblem_solution_once(monkeypatch, da_iter, solves):
    # splpo.ada is rebound to the function, so reach the module itself.
    module = sys.modules["splpo.ada"]
    calls = []

    def counting_vfh(*args, **kwargs):
        calls.append(args)
        return vfh(*args, **kwargs)

    monkeypatch.setattr(module, "vfh", counting_vfh)
    inst = random_instance(4)
    res = ada(inst, AdaConfig(sg_iter=10, da_iter=da_iter, vfh_iter=3))
    # DA takes two steps here, so it is done within da_iter=5 and after the
    # second VFH round with da_iter=0; every later round repeats the input.
    assert res.da_status == "optimal" and len(res.da_trace) == 2
    assert len(calls) == solves
    assert [s.provenance["round"] for s in res.vfh_solutions] == [0, 1, 2]
    last = res.vfh_solutions[solves - 1]
    for sol in res.vfh_solutions[solves:]:
        assert sol.objective == last.objective
        assert sol.open_facilities == last.open_facilities
        assert {**sol.provenance, "round": None} == {**last.provenance, "round": None}


def test_ada_toy_reaches_optimum(toy):
    res = ada(toy, AdaConfig(sg_iter=10, da_iter=2, vfh_iter=1, ps=0.5))
    assert res.best_ub == 8.0
    assert res.best_lb <= 8.0 + 1e-9
    assert res.stages_completed == ["hc", "sg", "da", "vfh"]
    assert check_feasible(toy, res.best_solution) == []


def test_preset_values():
    cfg = preset_config("a75_50")
    assert (cfg.sg_iter, cfg.da_iter, cfg.vfh_iter, cfg.ps) == (50, 3, 2, 0.25)
    assert preset_config("75_50") == cfg
    assert preset_config((100, 75)).sg_iter == 100
    assert preset_config((125, 100)).da_iter == 10
    assert preset_config((150, 100)).da_iter == 12
    for size_cfg in PRESETS.values():
        assert size_cfg.ps == 0.25 and size_cfg.vfh_iter == 2


def test_preset_nearest_bucket():
    assert preset_config((70, 50)) is PRESETS[(75, 50)]
    assert preset_config((160, 110)) is PRESETS[(150, 100)]
    with pytest.raises(ValueError):
        preset_config("nonsense")


def test_ada_config_validation():
    with pytest.raises(ValueError):
        AdaConfig(ps=1.5)
    with pytest.raises(ValueError):
        AdaConfig(sg_iter=-1)


@given(st.integers(0, 40))
def test_ada_never_worse_than_hc(seed):
    inst = random_instance(seed, m_max=9, n_max=8)
    hc_sol, _ = heuristic_hc(inst)
    res = ada(inst, AdaConfig(sg_iter=15, da_iter=2, vfh_iter=1))
    assert res.best_ub <= hc_sol.objective + 1e-9


@given(st.integers(0, 30))
def test_ada_brackets_the_optimum(seed):
    inst = random_instance(seed, m_max=9, n_max=8)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    res = ada(inst, AdaConfig(sg_iter=15, da_iter=2, vfh_iter=2))
    assert res.best_lb <= opt + 1e-9
    assert res.best_ub >= opt - 1e-9
    for sol in res.vfh_solutions:
        assert check_feasible(inst, sol) == []


@settings(max_examples=12)
@given(st.integers(0, 20))
def test_ada_closes_gap_with_enough_rounds(seed):
    inst = random_instance(seed, m_max=7, n_max=6)
    opt = brute_force(ProblemSpec.splpo(inst)).value
    res = ada(inst, AdaConfig(sg_iter=10, da_iter=2, vfh_iter=inst.n + 3))
    assert res.best_ub == pytest.approx(opt, abs=1e-9)


def test_ada_zero_budgets(toy):
    res = ada(toy, AdaConfig(sg_iter=0, da_iter=0, vfh_iter=0))
    # only the greedy candidate remains
    assert res.best_ub == 8.0
    assert res.vfh_solutions == []


def test_ada_table_row(toy):
    res = ada(toy, AdaConfig(sg_iter=5, da_iter=1, vfh_iter=1, ps=0.5))
    row = ada_table_row("toy", res, opt=8.0)
    assert row["Prob"] == "toy"
    assert row["bestUB"] == 8.0
    assert row["GAP_o%"] == 0.0
    assert row["Optimal?"] is True
    assert row["y_j"] >= 1
