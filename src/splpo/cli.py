"""Command-line front end.

    splpo generate --m 75 --n 50 --seed 1 --count 4 --out-dir instances/
    splpo solve instances/a75_50_1.splpo --algorithm ada --sg-iter 100
    splpo bench "instances/*.splpo" --algorithms hc,hs,exact --out report.csv

Exit codes: 0 success, 2 usage error, 4 stopped at a limit.
"""

from __future__ import annotations

import argparse
import copy
import functools
import glob
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .ada import AdaConfig, ada, preset_config
from .exact import ProblemSpec, branch_and_bound, brute_force
from .instance import (GeneratorConfig, Instance, check_count, generate_instance, parse_instance,
                       write_instance)
from .lagrange import SG_MAX_ITER, subgradient_method
from .report import ReportRow, RunReport, config_hash, gap_fields
from .semilagrange import dual_ascent
from .solution import Solution, heuristic_hc, heuristic_hs, solution_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPLETE = 4

ALGORITHMS = ("hc", "hs", "sg", "da", "ada", "exact", "brute")


@functools.cache  # built on first use, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splpo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write seeded canonical instance files")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out-dir", type=Path, required=True)
    gen.add_argument("--tag", default="a", help="filename family prefix")
    gen.add_argument("--mode", choices=("uniform", "cost-consistent"), default="uniform")
    gen.set_defaults(run=cmd_generate)

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    solve.add_argument("instance", type=Path)
    solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    solve.add_argument("--solution-out", type=Path, default=None)
    solve.add_argument("--report-out", type=Path, default=None, help="append a report row here")
    _add_solver_flags(solve)
    solve.set_defaults(run=cmd_solve)

    bench = sub.add_parser("bench", help="compare algorithms across instances")
    bench.add_argument("instances", nargs="+", help="instance paths or globs")
    bench.add_argument("--algorithms", default="hc,hs,exact")
    bench.add_argument("--out", type=Path, default=None)
    bench.add_argument("--optima", type=Path, default=None,
                       help="JSON file mapping instance name to its optimal value")
    _add_solver_flags(bench)
    bench.set_defaults(run=cmd_bench)
    return parser


# Each solver flag: its type, and the setting it overrides in each algorithm
# that reads it. sg passes its max_iter to subgradient_method, da its fields
# to dual_ascent and exact its fields to branch_and_bound; ada builds an
# AdaConfig over the instance's size preset. An algorithm not listed ignores
# the flag. The paper's fixed schedules (the subgradient step schedule and
# the variable-fixing rounds) are constants, not flags.
SOLVER_FLAGS = {
    "sg_iter": (int, {"sg": "max_iter", "ada": "sg_iter"}),
    "da_iter": (int, {"da": "max_iter", "ada": "da_iter"}),
    "node_limit": (int, {"da": "node_limit", "ada": "node_limit", "exact": "node_limit"}),
    "time_limit": (float, {"da": "time_limit", "ada": "time_limit", "exact": "time_limit"}),
}
_DEFAULTS = {
    "sg": {"max_iter": SG_MAX_ITER},
    "da": {"max_iter": None, "node_limit": None, "time_limit": None},
    "exact": {"node_limit": None, "time_limit": None},
}


def _add_solver_flags(cmd: argparse.ArgumentParser) -> None:
    for name, (kind, _) in SOLVER_FLAGS.items():
        cmd.add_argument("--" + name.replace("_", "-"), type=kind, default=None)


def _settings(inst: Instance, algorithm: str, args) -> dict:
    """Every setting the algorithm runs with, by config field: its defaults
    (ada's from the instance's size preset), then the flags it reads. hc, hs
    and brute have none."""
    if algorithm == "ada":
        fields = preset_config((inst.m, inst.n)).asdict()
    else:
        fields = dict(_DEFAULTS.get(algorithm, {}))
    for name, (_, targets) in SOLVER_FLAGS.items():
        value = getattr(args, name)
        if value is not None and algorithm in targets:
            fields[targets[algorithm]] = value
    return fields


def _run_algorithm(inst: Instance, algorithm: str, args) -> tuple:
    t0 = time.perf_counter()
    name = inst.name or "instance"
    ub = lb = opt = None
    y_count = iterations = best_iteration = None
    status = "ok"
    solution = None
    stage_time = None

    fields = _settings(inst, algorithm, args)
    if algorithm == "hc" or algorithm == "hs":
        run = heuristic_hc if algorithm == "hc" else heuristic_hs
        solution = run(inst)
        ub, y_count = solution.objective, len(solution.open_facilities)
        iterations = solution.provenance["rounds"]
    elif algorithm == "sg":
        res = subgradient_method(inst, **fields)
        lb, iterations, best_iteration = res.best_value, res.iterations, res.best_iteration
        status = res.status
    elif algorithm == "da":
        res = dual_ascent(inst, np.zeros(inst.m), **fields)
        lb, iterations, status = res.best_lower_bound, res.iterations, res.status
        if res.last is not None and res.last.solution.open_facilities:
            sol = res.last.solution
            solution = Solution(sol.open_facilities, sol.assign, sol.objective,
                                {"algorithm": "dual_ascent"})
            ub, y_count = solution.objective, len(solution.open_facilities)
    elif algorithm == "ada":
        res = ada(inst, AdaConfig(**fields))
        solution, ub, lb = res.best_solution, res.best_ub, res.best_lb
        y_count = len(res.best_solution.open_facilities)
        iterations = res.sg.iterations + len(res.da_trace)
        status = res.da_status
        stage_time = res.timings.get("da", 0.0) + res.timings.get("vfh", 0.0)
    else:  # exact or brute
        spec = ProblemSpec.splpo(inst)
        res = branch_and_bound(spec, **fields) if algorithm == "exact" else brute_force(spec)
        solution, ub, lb, status = res.solution, res.value, res.lower_bound, res.status
        opt = res.value if res.status == "optimal" else None
        y_count = len(res.solution.open_facilities)
        iterations = res.nodes

    gap_abs, gap_pct = gap_fields(ub, opt)
    total = time.perf_counter() - t0
    row = ReportRow(
        prob=name,
        algorithm=algorithm,
        status=str(status),
        best_ub=ub,
        lower_bound=lb,
        opt=opt,
        gap_abs=gap_abs,
        gap_pct=gap_pct,
        y_count=y_count,
        iterations=iterations,
        best_iteration=best_iteration,
        time_s=round(total if stage_time is None else stage_time, 3),
        total_time_s=round(total, 3),
        config_hash=config_hash({"algorithm": algorithm, **fields}),
    )
    return row, solution


def cmd_generate(args) -> int:
    if args.m < 1 or args.n < 1:
        raise ValueError("m and n must be at least 1")
    if args.count < 1:
        raise ValueError("count must be at least 1")
    check_count("seed", args.seed)  # before mkdir, so a bad seed leaves no directory
    cfg = GeneratorConfig(mode=args.mode)
    out_dir = args.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {out_dir}: {exc}") from exc
    for k in range(1, args.count + 1):
        name = f"{args.tag}{args.m}_{args.n}_{k}"
        inst = generate_instance(args.m, args.n, args.seed + k - 1, cfg, name=name)
        path = out_dir / f"{name}.splpo"
        path.write_text(write_instance(inst))
        print(path)
    return EXIT_OK


def _load_instance(path: Path) -> Instance:
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text, name=path.stem)


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    row, solution = _run_algorithm(inst, args.algorithm, args)

    if args.solution_out:
        if solution is None:
            doc = {
                "open": None,
                "assign": None,
                "objective": None,
                "provenance": {"algorithm": args.algorithm, "lower_bound": row.lower_bound},
            }
            args.solution_out.write_text(json.dumps(doc, indent=2, sort_keys=True))
        else:
            args.solution_out.write_text(solution_to_json(solution))
    if args.report_out:
        _append_report(args.report_out, [row])

    summary = {k: v for k, v in (("bestUB", row.best_ub), ("LB", row.lower_bound)) if v is not None}
    print(f"{row.prob} {args.algorithm}: {summary} status={row.status} t={row.time_s}s")
    return EXIT_INCOMPLETE if row.status == "incomplete" else EXIT_OK


def _append_report(path: Path, rows) -> None:
    if path.exists():
        try:
            report = RunReport.from_csv(path.read_text())
        except ValueError as exc:
            raise ValueError(f"cannot append to {path}: {exc}") from exc
        report.rows.extend(rows)
    else:
        report = RunReport(rows=list(rows))
    path.write_text(report.to_csv())


def _load_optima(path: Path) -> dict:
    """A JSON object mapping instance names to finite numbers, else ValueError."""
    try:
        optima = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read optima file {path}: {exc}") from exc
    if not isinstance(optima, dict):
        raise ValueError(f"optima file {path} must hold a JSON object mapping instance "
                         f"names to optimal values, got a {type(optima).__name__}")
    for name, value in optima.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            finite = False
        if not finite:
            raise ValueError(f"optima file {path}: the value of {name!r} must be a finite "
                             f"number, got {value!r}")
    return optima


def cmd_bench(args) -> int:
    paths = []
    for pattern in args.instances:
        hits = sorted(glob.glob(pattern))
        if not hits and Path(pattern).exists():
            hits = [pattern]
        paths.extend(hits)
    paths = list(dict.fromkeys(paths))  # in the order given, each glob's hits sorted
    if not paths:
        raise ValueError("no instances match the given patterns")
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError("--algorithms names no algorithm")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms: {', '.join(unknown)}")
    repeated = [a for a in dict.fromkeys(algorithms) if algorithms.count(a) > 1]
    if repeated:
        raise ValueError(f"--algorithms names {', '.join(repeated)} more than once")

    optima = _load_optima(args.optima) if args.optima else {}

    rows = []
    for path in paths:
        inst = _load_instance(Path(path))
        opt = optima.get(inst.name)
        per_instance = []
        for algorithm in algorithms:
            try:
                # A copy carries none of the instance's derived data (layouts,
                # greedy sweep), so each row times all the work its algorithm
                # does, whatever ran before it.
                row, _ = _run_algorithm(copy.copy(inst), algorithm, args)
            except ValueError as exc:
                per_instance.append(
                    ReportRow(prob=inst.name, algorithm=algorithm, status=f"error: {exc}")
                )
                continue
            if row.opt is not None and opt is None:
                opt = row.opt
            per_instance.append(row)
        if opt is not None:
            for row in per_instance:
                row.opt = opt
                row.gap_abs, row.gap_pct = gap_fields(row.best_ub, opt)
        rows.extend(per_instance)

    payload = RunReport(rows=rows).to_csv()
    if args.out:
        args.out.write_text(payload)
        print(args.out)
    else:
        print(payload, end="")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except Exception as exc:  # malformed inputs, unreadable files and the like
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
