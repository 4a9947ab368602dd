"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single CRITERION line on success; run with -v (or -rA)
to see one pass/fail line per criterion. Criterion 8 needs the original
benchmark files and skips unless SPLPO_BENCHMARK_DIR points at them.
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from splpo import (
    UNASSIGNED,
    AdaConfig,
    GeneratorConfig,
    ProblemSpec,
    ada,
    branch_and_bound,
    brute_force,
    check_feasible,
    dual_ascent,
    generate_instance,
    heuristic_hc,
    heuristic_hs,
    parse_instance,
    parse_orlib,
    solve_lr,
    subgradient_method,
)
from splpo.lagrange import LagrangeMultipliers

from conftest import cost_ceiling
from test_lagrange import oracle_min_relaxed
from test_semilagrange import tied_instance


def sized_instance(seed, lo=2, hi=10):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(lo, hi + 1))
    n = int(rng.integers(lo, hi + 1))
    return generate_instance(m, n, seed, name=f"acc{seed}")


def gamma_in_box(inst, rng):
    low = inst.c.min(axis=1)
    u = rng.random(inst.m)
    return low + np.maximum(u, 1e-9) * (cost_ceiling(inst) - low)


def test_criterion_1_oracle_equivalence():
    """Branch and bound matches full enumeration on both problem kinds."""
    for seed in range(200):
        inst = sized_instance(seed)
        a = branch_and_bound(ProblemSpec.splpo(inst))
        b = brute_force(ProblemSpec.splpo(inst))
        assert a.value == b.value, (seed, a.value, b.value)
        assert a.status == b.status == "optimal"
        assert check_feasible(inst, a.solution) == []
        assert check_feasible(inst, b.solution) == []
        rng = np.random.default_rng(10_000 + seed)
        for _ in range(5):
            threshold = float(gamma_in_box(inst, rng).sum())
            x = branch_and_bound(ProblemSpec.slr(inst, threshold))
            y = brute_force(ProblemSpec.slr(inst, threshold))
            assert x.value == y.value, (seed, x.value, y.value)
    print("CRITERION 1 (exact-engine oracle equivalence, 200 instances): PASS")


def test_criterion_2_closed_form_relaxation():
    """Closed-form relaxation value equals brute-force minimization.

    Multipliers are drawn integer-valued so that both sides stay within
    exact float64 integer arithmetic and equality can be checked exactly.
    """
    done = 0
    for seed in itertools.count():
        rng = np.random.default_rng(20_000 + seed)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        if m * n > 16:
            continue
        inst = generate_instance(m, n, 20_000 + seed)
        scale = int(inst.c.max() + inst.f.max())
        mu = rng.integers(-scale // 4, scale, size=m).astype(float)
        lam = rng.integers(0, scale // 4, size=(m, n)).astype(float)
        value = solve_lr(inst, LagrangeMultipliers(mu=mu, lam=lam)).value
        expected = oracle_min_relaxed(inst, mu, lam)
        assert value == expected, (seed, value, expected)
        done += 1
        if done == 100:
            break
    print("CRITERION 2 (closed-form relaxation vs oracle, 100 triples): PASS")


def test_criterion_3_weak_duality_along_sg():
    """Every subgradient iterate stays below the optimum; incumbent is monotone."""
    for seed in range(20):
        inst = sized_instance(300 + seed)
        opt = brute_force(ProblemSpec.splpo(inst)).value
        res = subgradient_method(inst)
        for row in res.trace:
            assert row.lr_value <= opt + 1e-9, (seed, row.iteration)
        bests = [row.lr_best for row in res.trace]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bests, bests[1:]))
        assert res.best_value <= opt + 1e-9
    print("CRITERION 3 (weak duality + monotone incumbent, 20 instances): PASS")


def test_criterion_4_duality_gap_closure():
    """Uncapped dual ascent certifies the exact optimum, tied costs included."""
    instances = [sized_instance(400 + seed) for seed in range(50)]
    instances += [tied_instance(seed) for seed in range(400)]
    # The worst false ceiling of the old stop rule: lower bound 6 against 1,256.
    wide_open = GeneratorConfig(cost_range=(1, 4), open_range=(0, 5000))
    instances.append(generate_instance(3, 3, 34, wide_open, name="tied_wide34"))
    for inst in instances:
        res = dual_ascent(inst, np.zeros(inst.m))
        opt = brute_force(ProblemSpec.splpo(inst)).value
        assert res.status == "optimal", (inst.name, res.status)
        assert abs(res.best_lower_bound - opt) <= 1e-9, (inst.name, res.best_lower_bound, opt)
        values = [row.value for row in res.trace]
        assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(values, values[1:]))
    print(f"CRITERION 4 (dual ascent closes the gap, {len(instances)} instances): PASS")


def test_criterion_5_ceiling_start_terminates_immediately():
    """Starting at the cost ceiling ends at iteration 0 with the optimum."""
    for seed in range(50):
        inst = sized_instance(400 + seed)
        cp = cost_ceiling(inst)
        res = dual_ascent(inst, cp)
        opt = brute_force(ProblemSpec.splpo(inst)).value
        assert res.status == "optimal", (seed, res.status)
        assert len(res.trace) == 1 and res.trace[0].iteration == 0
        assert res.last.solution.open_facilities
        assert not (res.last.solution.assign == UNASSIGNED).any()
        assert abs(res.best_lower_bound - opt) <= 1e-9
    print("CRITERION 5 (ceiling start, iteration-0 optimality, 50 instances): PASS")


def test_criterion_6_heuristic_dominance_and_validity():
    """Optimum <= greedy full sweep <= greedy early stop."""
    for seed in range(100):
        rng = np.random.default_rng(600 + seed)
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 13))
        inst = generate_instance(m, n, 600 + seed)
        opt = branch_and_bound(ProblemSpec.splpo(inst)).value
        hc_val = heuristic_hc(inst).objective
        hs_val = heuristic_hs(inst).objective
        assert opt <= hc_val + 1e-9, seed
        assert hc_val <= hs_val + 1e-9, seed
    print("CRITERION 6 (heuristic dominance, 100 instances): PASS")


def test_criterion_7_pipeline_quality_desk_scale():
    """Pipeline mean optimality gap stays within 2 percent of exact."""
    cfg = AdaConfig(sg_iter=50, da_iter=3)
    gaps = []
    for k in range(30):
        m = (40, 60)[k % 2]
        n = (25, 40)[(k // 2) % 2]
        inst = generate_instance(m, n, 7000 + k, name=f"desk{k}")
        opt = branch_and_bound(ProblemSpec.splpo(inst)).value
        res = ada(inst, cfg)
        gap = res.best_ub - opt
        assert gap >= -1e-9, (k, res.best_ub, opt)
        gaps.append(100.0 * gap / opt)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap <= 2.0, mean_gap
    print(
        f"CRITERION 7 (pipeline quality, 30 instances, mean gap "
        f"{mean_gap:.3f}% <= 2%): PASS"
    )


def _load_benchmark_instance(directory: Path, stem: str):
    canonical = directory / f"{stem}.splpo"
    if canonical.exists():
        return parse_instance(canonical.read_text(), name=stem)
    core = directory / stem
    pref = directory / f"{stem}.pref"
    if core.exists() and pref.exists():
        return parse_orlib(core.read_text(), pref.read_text(), name=stem)
    return None


def test_criterion_8_reference_values_when_files_present():
    """Reference bound checks, only runnable with the original instance files."""
    root = os.environ.get("SPLPO_BENCHMARK_DIR")
    if not root:
        pytest.skip("original benchmark files unavailable (set SPLPO_BENCHMARK_DIR)")
    directory = Path(root)
    inst = _load_benchmark_instance(directory, "131_1")
    if inst is None:
        pytest.skip("131_1 not found under SPLPO_BENCHMARK_DIR")
    hc_val = heuristic_hc(inst).objective
    assert hc_val == 1001440
    inst = _load_benchmark_instance(directory, "a75_50_4")
    if inst is None:
        pytest.skip("a75_50_4 not found under SPLPO_BENCHMARK_DIR")
    opt = branch_and_bound(ProblemSpec.splpo(inst)).value
    res = ada(inst, AdaConfig(sg_iter=50, da_iter=3))
    assert 100.0 * (res.best_ub - opt) / opt <= 0.5
    print("CRITERION 8 (reference value reproduction): PASS")
