"""The benchmark's own checks.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root; takes about a quarter of a minute. Each run here is
one pass over one or two of the fastest recorded instances per workload.
"""

import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import tracing  # noqa: E402
from workloads import WORKLOADS, load_optima  # noqa: E402

# One small, recorded instance set per workload.
SMALL = {"exact_multiopen": (9,), "ada_uniform": (4,), "cli_screen": (1, 2)}
REPEATING = ("exact.calls", "exact.nodes", "exact.pruned_frac", "exact.root_gap_pct",
             "exact.incumbent_node_frac", "semilagrange.steps", "semilagrange.slr_nodes",
             "semilagrange.max_step_nodes", "ada.vfh_calls", "ada.vfh_nodes",
             "lagrange.sg.calls", "lagrange.sg.iterations", "lagrange.solve_lr.calls",
             "solution.hc.calls")


def _traced(name):
    return run.run(name, seed=3, seconds=1e-3, trace=True, instance_seeds=SMALL[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_and_gaps_repeat_exactly(name):
    originals = {(m, a): getattr(tracing.package_module(m), a) for m, a, _ in tracing.CALL_SITES}
    first, second = _traced(name), _traced(name)
    for rec in (first, second):
        assert rec["failed"] == 0, rec["failures"]
        assert rec["end_to_end"]["ok_frac"] == 1.0
    for key in REPEATING:
        assert first["per_layer"][key] == second["per_layer"][key], key
    for key in ("ub_pct_of_opt", "lb_pct_of_opt"):
        assert first["end_to_end"][key] == second["end_to_end"][key], key
    for site in WORKLOADS[name].expected_sites:
        assert first["site_calls"][site] > 0, site
    # Every patched name is back in place after the run.
    for (mod, attr), fn in originals.items():
        assert getattr(tracing.package_module(mod), attr) is fn


def test_every_instance_has_a_recorded_optimum():
    table = load_optima()
    for name, wl in WORKLOADS.items():
        for seeds in wl.seeds.values():
            for seed in seeds:
                assert table[name][str(seed)]["status"] == "optimal"
                if name == "exact_multiopen":
                    assert table[name][str(seed)]["open"] >= 2


def test_moved_call_site_fails_loudly(monkeypatch):
    kept = tuple(site for site in tracing.CALL_SITES if site[:2] != ("exact", "heuristic_hc"))
    monkeypatch.setattr(tracing, "CALL_SITES", kept)
    with pytest.raises(SystemExit, match="exact.heuristic_hc"):
        _traced("exact_multiopen")


def test_wrong_answer_counts_as_failure(monkeypatch):
    table = load_optima()
    table["exact_multiopen"]["9"] = dict(table["exact_multiopen"]["9"], value=1.0)
    monkeypatch.setattr("workloads.load_optima", lambda: table)
    rec = run.run("exact_multiopen", seed=1, seconds=1e-3, trace=False, instance_seeds=(9,))
    assert rec["attempted"] == 1 and rec["failed"] == 1
    assert rec["end_to_end"]["ok_frac"] == 0.0


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_multiopen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
    assert "no splpo sources" in proc.stderr
