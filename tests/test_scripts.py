import csv
import importlib.util
import re
import sys
from pathlib import Path

from splpo import ProblemSpec, RunReport, ada, branch_and_bound, generate_instance, preset_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_smoke(tmp_path):
    # The second run reuses --out, which still holds the first run's files.
    run_benchmark = load_script("run_benchmark")
    for seeds in (11, 2):
        argv = ["--out", str(tmp_path), "--sizes", "8x5", "--seeds", str(seeds)]
        assert run_benchmark.main(argv) == 0
        names = [f"a8_5_{k}" for k in range(1, seeds + 1)]
        bench = RunReport.from_csv((tmp_path / "bench.csv").read_text()).rows
        assert list(dict.fromkeys(row.prob for row in bench)) == names
        with (tmp_path / "ada_summary.csv").open() as fh:
            assert [row["Prob"] for row in csv.DictReader(fh)] == names


def test_run_benchmark_summary_is_read_from_the_bench_rows(tmp_path, monkeypatch):
    run_benchmark = load_script("run_benchmark")
    cli = sys.modules["splpo.cli"]
    calls = {"ada": [], "branch_and_bound": []}
    for name in calls:
        def counted(inst_or_spec, *args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name].append(getattr(inst_or_spec, "inst", inst_or_spec).name)
            return _fn(inst_or_spec, *args, **kwargs)
        monkeypatch.setattr(cli, name, counted)

    argv = ["--out", str(tmp_path), "--sizes", "8x5,10x6", "--seeds", "2", "--algorithms", "hc"]
    assert run_benchmark.main(argv) == 0

    names = ["a8_5_1", "a8_5_2", "a10_6_1", "a10_6_2"]
    # The pipeline and the exact engine each see every instance once; ada and
    # exact join hc in the bench table because the summary needs them.
    assert sorted(calls["ada"]) == sorted(calls["branch_and_bound"]) == sorted(names)
    bench = RunReport.from_csv((tmp_path / "bench.csv").read_text()).rows
    assert {(r.prob, r.algorithm) for r in bench} == {
        (name, alg) for name in names for alg in ("hc", "ada", "exact")}
    bench = {(r.prob, r.algorithm): r for r in bench}

    with (tmp_path / "ada_summary.csv").open() as fh:
        summary = list(csv.DictReader(fh))
    assert [row["Prob"] for row in summary] == names
    for row in summary:
        name = row["Prob"]
        m, n, seed = (int(x) for x in name[1:].split("_"))
        inst = generate_instance(m, n, seed)
        direct = ada(inst, preset_config((m, n)))
        opt = branch_and_bound(ProblemSpec.splpo(inst)).value
        ada_row = bench[(name, "ada")]
        assert float(row["bestUB"]) == ada_row.best_ub == direct.best_ub
        assert float(row["LB"]) == ada_row.lower_bound == direct.best_lb
        assert int(row["y_j"]) == ada_row.y_count == len(direct.best_solution.open_facilities)
        assert float(row["GAP_o%"]) == ada_row.gap_pct == 100.0 * (direct.best_ub - opt) / opt
        assert row["Optimal?"] == ("True" if direct.best_ub == opt else "")
        assert float(row["t"]) == ada_row.time_s
        assert float(row["Tt"]) == ada_row.total_time_s
        assert float(row["exact_t"]) == bench[(name, "exact")].total_time_s


def test_engine_digest_pins_the_engine_results():
    # Bit for bit: a change to any value, bound, node sequence, tie or
    # frontier of the script's searches and ada runs, to any float of its
    # subgradient runs, or to any of its hc and hs solutions, changes this line.
    engine_digest = load_script("engine_digest")
    assert engine_digest.digest() == (
        "b43e5110407b5d214c7346a2d2c1699f203c3cf457ab4fab3a7ff0eb6ddd64d1")


def test_engine_digest_prints_one_repeatable_sha256(capsys):
    engine_digest = load_script("engine_digest")
    lines = []
    for _ in range(2):
        assert engine_digest.main(["--quick"]) == 0
        lines.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}\n", lines[0])
    assert lines[0] == lines[1]


def test_threshold_search_smoke(capsys):
    threshold_search = load_script("threshold_search")
    assert threshold_search.main(["--m", "20", "--n", "12", "--step", "2"]) == 0
    out = capsys.readouterr().out
    line = r"^{} +steps=(\d+) nodes=(\d+) rebuilt=(\d+) seconds=\S+ value=(\S+)$"
    resumed = re.search(line.format("resumed"), out, re.M)
    fresh = re.search(line.format("fresh"), out, re.M)
    assert resumed and fresh, out
    assert int(resumed[1]) > 1 and int(resumed[3]) > 0 and fresh[1] == "1" and fresh[3] == "0"
    # The chain evaluates exactly the nodes of one fresh search, and ends at its value.
    assert resumed[2] == fresh[2] and resumed[4] == fresh[4]
    assert re.search(r"^ratio +\d+\.\d\d$", out, re.M)
