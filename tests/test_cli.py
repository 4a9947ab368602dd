import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splpo import (
    PRESETS, AdaConfig, GeneratorConfig, ProblemSpec, RunReport,
    branch_and_bound, brute_force, generate_instance, parse_instance, preset_config,
)
from splpo.cli import (
    ALGORITHMS, EXIT_INCOMPLETE, EXIT_OK, EXIT_USAGE, _run_algorithm, build_parser, main,
)
from splpo.report import ReportRow, config_hash, gap_fields

from conftest import random_instance

TOY_DOC = """SPLPO 1
2 2
3 1
2 5
4 2
1 2
2 1
"""


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.splpo"
    path.write_text(TOY_DOC)
    return path


def test_generate_names_and_determinism(tmp_path):
    out = tmp_path / "inst"
    args = ["generate", "--m", "7", "--n", "5", "--seed", "1", "--count", "4",
            "--out-dir", str(out)]
    assert main(args) == EXIT_OK
    names = sorted(p.name for p in out.glob("*.splpo"))
    assert names == [f"a7_5_{k}.splpo" for k in range(1, 5)]
    first = {p.name: p.read_bytes() for p in out.glob("*.splpo")}
    assert main(args) == EXIT_OK
    second = {p.name: p.read_bytes() for p in out.glob("*.splpo")}
    assert first == second
    inst = parse_instance((out / "a7_5_1.splpo").read_text())
    assert inst.m == 7 and inst.n == 5


def test_generate_rejects_a_count_below_one(tmp_path, capsys):
    assert main(["generate", "--m", "3", "--n", "2", "--count", "0",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert "count must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_rejects_bad_dims(tmp_path):
    assert main(["generate", "--m", "0", "--n", "5", "--out-dir", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("scale", ["0", "-3"])
def test_generate_rejects_a_bad_scale(tmp_path, capsys, scale):
    # Scaling every cost by k makes no new instance, only k times the values,
    # so `generate` takes no --scale at all: every value is a usage error.
    out = tmp_path / "inst"
    args = ["generate", "--m", "3", "--n", "2", "--scale", scale, "--out-dir", str(out)]
    assert main(args) == EXIT_USAGE
    assert f"unrecognized arguments: --scale {scale}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_a_bad_seed_before_making_the_directory(tmp_path, capsys):
    out = tmp_path / "inst"
    args = ["generate", "--m", "3", "--n", "2", "--seed", "-1", "--out-dir", str(out)]
    assert main(args) == EXIT_USAGE
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_solve_exact(toy_file, tmp_path):
    sol_path = tmp_path / "sol.json"
    rep_path = tmp_path / "rows.csv"
    code = main([
        "solve", str(toy_file), "--algorithm", "exact",
        "--solution-out", str(sol_path), "--report-out", str(rep_path),
    ])
    assert code == EXIT_OK
    doc = json.loads(sol_path.read_text())
    assert doc["objective"] == 8.0
    assert doc["open"] == [2]
    report = RunReport.from_csv(rep_path.read_text())
    assert report.rows[0].best_ub == 8.0
    assert report.rows[0].opt == 8.0
    assert report.rows[0].config_hash


def test_solve_hc(toy_file, tmp_path):
    sol_path = tmp_path / "hc.json"
    code = main(["solve", str(toy_file), "--algorithm", "hc", "--solution-out", str(sol_path)])
    assert code == EXIT_OK
    doc = json.loads(sol_path.read_text())
    assert doc["objective"] == 8.0 and doc["open"] == [1, 2]
    assert doc["provenance"] == {"algorithm": "hc", "rounds": 2}


def test_solve_ada_with_preset(toy_file, tmp_path):
    """ada takes its budgets from the preset nearest the instance's size."""
    rep = tmp_path / "r.csv"
    code = main([
        "solve", str(toy_file), "--algorithm", "ada", "--sg-iter", "5", "--report-out", str(rep),
    ])
    assert code == EXIT_OK
    row = RunReport.from_csv(rep.read_text()).rows[0]
    assert row.best_ub == 8.0
    assert row.lower_bound <= 8.0 + 1e-9
    ran = AdaConfig(**{**PRESETS[(75, 50)].asdict(), "sg_iter": 5})
    assert row.config_hash == config_hash({"algorithm": "ada", **ran.asdict()})


def test_preset_flag_is_gone(toy_file):
    argv = ["solve", str(toy_file), "--algorithm", "ada", "--preset", "75_50"]
    assert main(argv) == EXIT_USAGE


def test_solve_sg_reports_bound(toy_file, tmp_path):
    sol_path = tmp_path / "sg.json"
    code = main([
        "solve", str(toy_file), "--algorithm", "sg", "--sg-iter", "20",
        "--solution-out", str(sol_path),
    ])
    assert code == EXIT_OK
    doc = json.loads(sol_path.read_text())
    assert doc["objective"] is None
    assert doc["provenance"]["lower_bound"] <= 8.0 + 1e-9


def test_solve_unknown_algorithm(toy_file):
    assert main(["solve", str(toy_file), "--algorithm", "nope"]) == EXIT_USAGE


def test_solve_missing_file(tmp_path):
    assert main(["solve", str(tmp_path / "absent.splpo"), "--algorithm", "hc"]) == EXIT_USAGE


def test_solve_brute_too_large(tmp_path):
    path = tmp_path / "big.splpo"
    n = 25
    perm = " ".join(str(v) for v in range(1, n + 1))
    doc = "\n".join(
        ["SPLPO 1", f"1 {n}", " ".join(["1"] * n), " ".join(["1"] * n), perm]
    )
    path.write_text(doc + "\n")
    assert main(["solve", str(path), "--algorithm", "brute"]) == EXIT_USAGE


def test_bench_table(toy_file, tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", str(toy_file), "--algorithms", "hc,hs,exact", "--out", str(out),
    ])
    assert code == EXIT_OK
    report = RunReport.from_csv(out.read_text())
    by_alg = {row.algorithm: row for row in report.rows}
    assert set(by_alg) == {"hc", "hs", "exact"}
    # the exact run supplies the optimum for everyone's gap columns
    assert by_alg["hc"].gap_pct is not None
    assert by_alg["hc"].gap_pct <= by_alg["hs"].gap_pct
    assert by_alg["exact"].gap_pct == 0.0


def test_bench_runs_each_algorithm_on_its_own_instance(tmp_path, count_sweeps):
    # No row reads a greedy sweep another row made, so a row's time does not
    # depend on the algorithms listed before it: hs makes its own early-stopped
    # sweep after hc, and sg its own for the step target.
    main(["generate", "--m", "12", "--n", "9", "--seed", "2", "--out-dir", str(tmp_path)])
    code = main(["bench", str(tmp_path / "*.splpo"), "--algorithms", "hc,hs,sg",
                 "--out", str(tmp_path / "bench.csv")])
    assert code == EXIT_OK
    assert sorted(count_sweeps.values()) == [[False], [False], [True]]


def test_bench_gaps_dominance(tmp_path):
    out_dir = tmp_path / "inst"
    main(["generate", "--m", "8", "--n", "6", "--seed", "3", "--count", "4",
          "--out-dir", str(out_dir)])
    out = tmp_path / "bench.csv"
    code = main([
        "bench", str(out_dir / "*.splpo"), "--algorithms", "hc,hs,exact",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    report = RunReport.from_csv(out.read_text())
    probs = {row.prob for row in report.rows}
    assert len(probs) == 4
    for prob in probs:
        rows = {r.algorithm: r for r in report.rows if r.prob == prob}
        assert rows["hc"].gap_pct <= rows["hs"].gap_pct
        assert rows["hc"].gap_pct >= -1e-9 and rows["hs"].gap_pct >= -1e-9


def test_bench_ada_against_exact(tmp_path):
    out_dir = tmp_path / "inst"
    main(["generate", "--m", "10", "--n", "8", "--seed", "11", "--count", "3",
          "--out-dir", str(out_dir)])
    out = tmp_path / "bench.csv"
    code = main([
        "bench", str(out_dir / "*.splpo"), "--algorithms", "ada,exact",
        "--sg-iter", "10", "--da-iter", "2",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = RunReport.from_csv(out.read_text()).rows
    ada_gaps = [r.gap_pct for r in rows if r.algorithm == "ada"]
    assert len(ada_gaps) == 3
    assert all(g is not None and g >= -1e-9 for g in ada_gaps)
    mean_gap = sum(ada_gaps) / len(ada_gaps)
    assert mean_gap < 100.0


def test_bench_empty_glob(tmp_path):
    assert main(["bench", str(tmp_path / "none*.splpo")]) == EXIT_USAGE


def test_bench_reports_an_algorithm_error_in_its_row_and_keeps_the_others(tmp_path):
    main(["generate", "--m", "5", "--n", "21", "--seed", "1", "--out-dir", str(tmp_path)])
    out = tmp_path / "bench.csv"
    code = main(["bench", str(tmp_path / "a5_21_1.splpo"), "--algorithms", "hc,brute,exact",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = RunReport.from_csv(out.read_text()).rows
    assert [row.algorithm for row in rows] == ["hc", "brute", "exact"]
    assert rows[1].status == "error: brute force limited to 20 sites, got 21"
    assert rows[1].best_ub is None
    assert rows[2].status == "optimal" and rows[0].best_ub >= rows[2].best_ub == rows[2].opt


def test_bench_takes_a_file_whose_name_no_glob_matches(tmp_path):
    # As a pattern, "x[1].splpo" matches only x1.splpo; the file itself is still benched.
    path = tmp_path / "x[1].splpo"
    path.write_text(TOY_DOC)
    out = tmp_path / "bench.csv"
    assert main(["bench", str(path), "--algorithms", "hc", "--out", str(out)]) == EXIT_OK
    (row,) = RunReport.from_csv(out.read_text()).rows
    assert (row.prob, row.best_ub) == ("x[1]", 8.0)


def test_bench_rejects_an_unknown_algorithm(toy_file, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", str(toy_file), "--algorithms", "hc,foo", "--out", str(out)])
    assert code == EXIT_USAGE and "unknown algorithms: foo" in capsys.readouterr().err
    assert not out.exists()


def test_solve_report_out_appends_a_row_per_run(toy_file, tmp_path):
    out = tmp_path / "rows.csv"
    for algorithm in ("hc", "exact"):
        assert main(["solve", str(toy_file), "--algorithm", algorithm,
                     "--report-out", str(out)]) == EXIT_OK
    rows = RunReport.from_csv(out.read_text()).rows
    assert [(row.prob, row.algorithm, row.best_ub) for row in rows] == [
        ("toy", "hc", 8.0), ("toy", "exact", 8.0)]


def test_bench_with_optima_file(toy_file, tmp_path):
    optima = tmp_path / "opt.json"
    optima.write_text(json.dumps({"toy": 8.0}))
    out = tmp_path / "bench.csv"
    code = main(["bench", str(toy_file), "--algorithms", "hc", "--optima",
                 str(optima), "--out", str(out)])
    assert code == EXIT_OK
    row = RunReport.from_csv(out.read_text()).rows[0]
    assert row.opt == 8.0 and row.gap_pct == 0.0


@pytest.mark.parametrize("doc, fragment", [
    ('{"toy": "abc"}', "'toy' must be a finite number, got 'abc'"),
    ('{"toy": 8.0, "other": NaN}', "'other' must be a finite number"),
    ('{"toy": true}', "'toy' must be a finite number"),
    ('{"toy": 1e999}', "'toy' must be a finite number"),
    ('[8.0]', "must hold a JSON object mapping instance names to optimal values, got a list"),
    ('{"toy": ', "cannot read optima file"),
])
def test_bench_rejects_a_malformed_optima_file(toy_file, tmp_path, capsys, doc, fragment):
    optima = tmp_path / "opt.json"
    optima.write_text(doc)
    out = tmp_path / "bench.csv"
    code = main(["bench", str(toy_file), "--algorithms", "hc", "--optima", str(optima),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and fragment in err and str(optima) in err
    assert not out.exists()


@pytest.mark.parametrize("algorithms, fragment", [
    ("", "--algorithms names no algorithm"),
    (",,", "--algorithms names no algorithm"),
    (" , ", "--algorithms names no algorithm"),
    ("hc,hc", "--algorithms names hc more than once"),
    ("sg,hc,sg,hc, hc", "--algorithms names sg, hc more than once"),
])
def test_bench_rejects_an_empty_or_repeated_algorithm_list(toy_file, tmp_path, capsys,
                                                          algorithms, fragment):
    out = tmp_path / "bench.csv"
    code = main(["bench", str(toy_file), "--algorithms", algorithms, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and fragment in captured.err
    assert not out.exists() and captured.out == ""


def test_non_finite_costs_are_bad_input_not_infeasible(tmp_path, capsys):
    path = tmp_path / "bad.splpo"
    path.write_text(TOY_DOC.replace("3 1", "1 inf").replace("2 5", "1 nan"))
    assert main(["solve", str(path), "--algorithm", "exact"]) == EXIT_USAGE
    assert "line 3: non-finite" in capsys.readouterr().err


def test_report_round_trips():
    rows = [
        ReportRow(prob="a", algorithm="hc", status="ok", best_ub=8.0, gap_pct=0.0,
                  y_count=1, time_s=0.001, config_hash="abc"),
        ReportRow(prob="b", algorithm="sg", status="iter_limit", lower_bound=4.5,
                  iterations=10, seed=3),
    ]
    report = RunReport(rows=rows)
    assert RunReport.from_csv(report.to_csv()) == report


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("config_hash", "config_hash,extra", 1),
     "unknown columns ['extra'], missing required columns []"),
    (lambda t: t.replace(",status", "", 1),
     "unknown columns [], missing required columns ['status']"),
    (lambda t: t.rstrip("\n") + ",surplus\n", "report line 3 has more cells than the 15 columns"),
    (lambda t: t + "c,hc\n", "report line 4 has fewer cells than the 15 columns"),
], ids=["unknown-column", "missing-column", "extra-cell", "short-row"])
def test_report_from_csv_rejects_what_is_not_a_report(edit, message):
    rows = [ReportRow(prob="a", algorithm="hc", status="ok"), ReportRow("b", "sg", "ok")]
    text = RunReport(rows=rows).to_csv()
    with pytest.raises(ValueError) as info:
        RunReport.from_csv(edit(text))
    assert message in str(info.value)
    if "columns [" in message:
        assert "a report has the columns prob, algorithm, status, best_ub" in str(info.value)


def test_report_from_csv_fills_absent_optional_columns_with_defaults():
    text = "prob,algorithm,status,best_ub\na,hc,ok,12.5\nb,sg,ok,\n"
    assert RunReport.from_csv(text) == RunReport(rows=[
        ReportRow("a", "hc", "ok", best_ub=12.5), ReportRow("b", "sg", "ok")])


def test_solve_report_out_names_the_columns_of_a_file_that_is_not_a_report(toy_file, tmp_path,
                                                                           capsys):
    out = tmp_path / "other.csv"
    out.write_text("name,value\nx,1\n")
    code = main(["solve", str(toy_file), "--algorithm", "hc", "--report-out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot append to {out}: not a report: unknown columns ['name', 'value']" in err
    assert out.read_text() == "name,value\nx,1\n"


def test_importing_the_cli_loads_no_dataclasses():
    # Record classes are plain classes: importing the package generates no code.
    # -I keeps the environment and user site out; -B leaves no bytecode behind.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import splpo.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('dataclasses')))")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_parser_is_built_on_first_use_and_reused(toy_file):
    # Importing the CLI builds no parser; main builds one and every call reuses it.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import splpo.cli; "
             "print(splpo.cli.build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "0"
    assert main(["solve", str(toy_file), "--algorithm", "nope"]) == EXIT_USAGE
    parser = build_parser()
    assert main(["solve", str(toy_file), "--algorithm", "hc"]) == EXIT_OK
    assert build_parser() is parser


def test_gap_arithmetic():
    gap, pct = gap_fields(102.0, 100.0)
    assert gap == pytest.approx(2.0, abs=1e-9)
    assert pct == pytest.approx(2.0, abs=1e-9)
    assert gap_fields(None, 100.0) == (None, None)
    assert gap_fields(8.0, None) == (None, None)


def test_config_hash_stable():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 12
    assert config_hash({"x": 2}) != a


def _row_hash(inst, algorithm, *flags):
    args = build_parser().parse_args(["solve", "unused", "--algorithm", algorithm, *flags])
    return _run_algorithm(inst, algorithm, args)[0].config_hash


def test_flags_override_preset(toy):
    ran = AdaConfig(sg_iter=50, da_iter=9, node_limit=5)  # 75x50 preset, two flags
    assert _row_hash(toy, "ada", "--da-iter", "9", "--node-limit", "5") == config_hash(
        {"algorithm": "ada", **ran.asdict()})


def test_config_hash_covers_every_field_run():
    """A row hashes its algorithm and every setting it ran with, defaults included."""
    inst = random_instance(3000, m_max=8, n_max=7)
    assert _row_hash(inst, "sg") == config_hash({"algorithm": "sg", "max_iter": 1500})
    assert _row_hash(inst, "da") == "bab76dede086"
    assert _row_hash(inst, "exact", "--node-limit", "5") == config_hash(
        {"algorithm": "exact", "node_limit": 5, "time_limit": None})
    for algorithm in ("hc", "hs", "brute"):
        assert _row_hash(inst, algorithm) == config_hash({"algorithm": algorithm})


def test_config_hash_equal_runs_hash_equal():
    inst = random_instance(3001, m_max=8, n_max=7)
    preset = preset_config((inst.m, inst.n))
    assert _row_hash(inst, "ada") == _row_hash(
        inst, "ada", "--sg-iter", str(preset.sg_iter), "--da-iter", str(preset.da_iter))
    assert _row_hash(inst, "sg") == _row_hash(inst, "sg", "--sg-iter", "1500")


@pytest.mark.parametrize("algorithm", ["hc", "sg", "exact"])
def test_config_hash_ignores_flags_not_read(algorithm):
    inst = random_instance(3002, m_max=8, n_max=7)
    unread = [["--da-iter", "2"]]
    if algorithm == "sg":
        unread.append(["--node-limit", "5"])
    for flags in unread:
        assert _row_hash(inst, algorithm, *flags) == _row_hash(inst, algorithm), flags


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_seed_is_not_a_solver_flag(toy_file, command, capsys):
    # No algorithm reads a seed; only generate takes one. Dual ascent derives
    # its rung offset from the costs, so no command takes an --epsilon, and
    # the paper's subgradient step schedule and variable-fixing rounds are
    # constants, so no command takes their old flags either.
    run = [command, str(toy_file), "--algorithm" if command == "solve" else "--algorithms", "da"]
    assert main(run) == EXIT_OK
    for flag in ("--seed", "--epsilon", "--beta0", "--stall-k", "--beta-dec", "--vfh-iter",
                 "--ps"):
        capsys.readouterr()
        assert main([*run, flag, "7"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, flags", [
    ("sg", ["--sg-iter", "3"]), ("sg", ["--sg-iter", "7"]), ("da", ["--da-iter", "2"]),
    ("ada", ["--node-limit", "5"]), ("ada", ["--sg-iter", "7"]), ("exact", ["--node-limit", "5"]),
])
def test_config_hash_changes_with_a_field_read(algorithm, flags):
    inst = random_instance(3003, m_max=8, n_max=7)
    assert _row_hash(inst, algorithm, *flags) != _row_hash(inst, algorithm)


def test_solve_incomplete_exit_code(tmp_path):
    out_dir = tmp_path / "i"
    main(["generate", "--m", "10", "--n", "10", "--seed", "5", "--count", "1",
          "--out-dir", str(out_dir)])
    path = out_dir / "a10_10_1.splpo"
    code = main(["solve", str(path), "--algorithm", "exact", "--node-limit", "1"])
    assert code == 4


def test_node_limited_da_brackets_the_optimum():
    """An incomplete dual-ascent step's value is its incumbent, not a bound:
    the report row must carry the proven lower bound instead."""
    params = GeneratorConfig(mode="cost-consistent", open_range=(100, 300))
    for seed in range(20):
        inst = generate_instance(10, 7, seed, params)
        opt = branch_and_bound(ProblemSpec.splpo(inst)).value
        for limit in range(1, 11):
            args = build_parser().parse_args(
                ["solve", "unused", "--algorithm", "da", "--node-limit", str(limit)])
            row, sol = _run_algorithm(inst, "da", args)
            assert row.lower_bound <= opt, (seed, limit, row.lower_bound, opt)
            if sol is not None:
                assert sol.provenance == {"algorithm": "dual_ascent"}
                assert opt <= row.best_ub == sol.objective, (seed, limit, row.best_ub, opt)


MALFORMED_LIMITS = [
    ("nan-time", "--time-limit", "nan", "time_limit must be a nonnegative number"),
    ("negative-time", "--time-limit", "-1", "time_limit must be a nonnegative number"),
    ("negative-nodes", "--node-limit", "-1", "node_limit must be a nonnegative integer"),
]


@pytest.mark.parametrize("algorithm, flag, value, message", [
    *(pytest.param(algorithm, flag, value, message, id=f"{name}-{algorithm}")
      for name, flag, value, message in MALFORMED_LIMITS for algorithm in ("exact", "da", "ada")),
    # The paper's step schedule is a constant and dual ascent derives its
    # rung offset, so these are no flags: refused as unrecognized, not read.
    pytest.param("sg", "--beta0", "nan", "unrecognized arguments: --beta0 nan", id="nan-beta0-sg"),
    *(pytest.param(algorithm, "--epsilon", "nan", "unrecognized arguments: --epsilon nan",
                   id=f"nan-epsilon-{algorithm}") for algorithm in ("da", "ada")),
])
def test_solve_rejects_malformed_limits(toy_file, algorithm, flag, value, message, capsys):
    assert main(["solve", str(toy_file), "--algorithm", algorithm, flag, value]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_every_algorithm_brackets_the_optimum():
    """Each algorithm's report row, at default flags, has LB <= opt <= UB."""
    for seed in range(40):
        inst = random_instance(3000 + seed, m_max=8, n_max=7)
        opt = brute_force(ProblemSpec.splpo(inst)).value
        for algorithm in ALGORITHMS:
            args = build_parser().parse_args(["solve", "unused", "--algorithm", algorithm])
            row, _ = _run_algorithm(inst, algorithm, args)
            if row.lower_bound is not None:
                assert row.lower_bound <= opt + 1e-9, (inst.name, algorithm)
            if row.best_ub is not None:
                assert row.best_ub >= opt - 1e-9, (inst.name, algorithm)


# Pinned runs of the CLI on generated instances. The preference bound proves
# the 100x75 instance optimal well within 1000 nodes, and the savings-dual
# bound the 75x50 cost-consistent one within 300; the 150x100 uniform tree is
# 3,185 nodes, so its optimum is proven within 3300 nodes and not within 3000.
# The subgradient bounds are pinned bit for bit (printed by repr), and the
# bench rows by status, bounds, open count, iterations and best iteration.
PINNED_FILES = {
    "a8_6_1": ["--m", "8", "--n", "6"],
    "a100_75_1": ["--m", "100", "--n", "75", "--seed", "1"],
    "c75_50_1": ["--m", "75", "--n", "50", "--seed", "1", "--mode", "cost-consistent",
                 "--tag", "c"],
    "a150_100_1": ["--m", "150", "--n", "100", "--seed", "1"],
}
# Two customers whose every cost ties: dual ascent starts at the ceiling,
# where the optimum equals the empty set's value.
TIE_DOC = "SPLPO 1\n2 2\n0 0\n5 5\n3 3\n1 2\n2 1\n"

CLI_PINS = [
    pytest.param("solve a100_75_1 --algorithm exact --node-limit 1000", EXIT_OK,
                 ["status=optimal"], [], id="exact-100x75-within-1000"),
    pytest.param("solve c75_50_1 --algorithm exact --node-limit 300", EXIT_OK,
                 ["status=optimal"], [], id="exact-c75x50-within-300"),
    pytest.param("solve a150_100_1 --algorithm exact --node-limit 3300", EXIT_OK,
                 ["status=optimal"], [], id="exact-150x100-within-3300"),
    pytest.param("solve a150_100_1 --algorithm exact --node-limit 3000", EXIT_INCOMPLETE,
                 ["status=incomplete"], [], id="exact-150x100-not-within-3000"),
    pytest.param("solve c75_50_1 --algorithm sg", EXIT_OK,
                 ["'LB': 109899.89378959322", "status=beta_exhausted"], [], id="sg-c75x50"),
    pytest.param("bench c75_50_1 --algorithms sg", EXIT_OK,
                 ["c75_50_1,sg,beta_exhausted,,109899.89378959322,,,,,704,509,"], [],
                 id="sg-c75x50-row"),
    pytest.param("solve a100_75_1 --algorithm sg", EXIT_OK, ["'LB': 139114.52469165678"], [],
                 id="sg-100x75"),
    # hs stops early, hc sweeps every site.
    pytest.param("bench c75_50_1 a100_75_1 --algorithms hc,hs", EXIT_OK,
                 ["c75_50_1,hc,ok,114892.0,,,,,2,50,", "c75_50_1,hs,ok,114892.0,,,,,2,44,",
                  "a100_75_1,hc,ok,155504.0,,,,,1,75,", "a100_75_1,hs,ok,155504.0,,,,,1,7,"],
                 [], id="greedy-rows"),
    # The optimum, its two open facilities and the node counts (the engine's
    # 127 pin its tree).
    pytest.param("bench c75_50_1 --algorithms ada,exact", EXIT_OK,
                 ["c75_50_1,ada,optimal,113462.0,113462.0,113462.0,0.0,0.0,2,51,",
                  "c75_50_1,exact,optimal,113462.0,113462.0,113462.0,0.0,0.0,2,127,"],
                 [], id="ada-exact-rows"),
    *(pytest.param(f"solve a8_6_1 --algorithm {algorithm}", EXIT_OK, [f"a8_6_1 {algorithm}:"],
                   ["error"], id=f"{algorithm}-8x6") for algorithm in ALGORITHMS),
    # Stopped at the root, the engine still reports the root's finite bound.
    pytest.param("solve a8_6_1 --algorithm exact --node-limit 0", EXIT_INCOMPLETE,
                 ["status=incomplete"], ["-inf"], id="exact-8x6-no-nodes"),
    pytest.param("solve a8_6_1 --algorithm sg --sg-iter 0", EXIT_OK, ["status=iter_limit"], [],
                 id="sg-8x6-no-steps"),
    pytest.param("solve tie --algorithm da", EXIT_OK, ["status=ceiling"], [], id="da-tie"),
]


@pytest.fixture(scope="module")
def pinned_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    for flags in PINNED_FILES.values():
        assert main(["generate", *flags, "--out-dir", str(out)]) == EXIT_OK
    (out / "tie.splpo").write_text(TIE_DOC)
    return out


@pytest.mark.parametrize("command, code, present, absent", CLI_PINS)
def test_cli_pins(pinned_dir, capsys, command, code, present, absent):
    """Each command's exit code, and the text its output must and must not hold;
    a word naming a pinned file stands for that file's path."""
    files = {*PINNED_FILES, "tie"}
    argv = [str(pinned_dir / f"{word}.splpo") if word in files else word
            for word in command.split()]
    assert main(argv) == code
    captured = capsys.readouterr()
    shown = captured.out + captured.err
    for text in present:
        assert text in shown, (text, shown)
    for text in absent:
        assert text not in shown, (text, shown)


def test_generated_files_are_pinned_by_digest(pinned_dir):
    """Any drift in the generator's or the writer's bytes fails here."""
    digests = {
        "c75_50_1": "1de50adcb2ed10183b728925c5ebffb4c260819a400843aba4053fd875b100ed",
        "a8_6_1": "7b86856d260b3824a314b982accf97933732983aaf36200ca88d49dfb06a5516",
    }
    for name, digest in digests.items():
        data = (pinned_dir / f"{name}.splpo").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
