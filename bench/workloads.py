"""The benchmark's three workloads: their inputs, one timed unit each, and the
correctness check of every unit's output.

Each workload has a fixed development set of instance seeds and a held-out
set of the same kind, with optima recorded in ``optima.json`` by
``record_optima.py``. The ``--seed`` of a run only orders the visits, so
every run of a workload does the same work and its timings compare across
seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from splpo import GeneratorConfig, ProblemSpec, preset_config
from splpo.report import RunReport
from splpo.solution import check_feasible

from tracing import ENTRY_POINTS, Tracer, package_module

OPTIMA_PATH = Path(__file__).with_name("optima.json")

# Instances are small enough that one unit takes a fraction of a second, so a
# run of 30 s visits every instance a dozen times or more (see run.py for why).
# 60x40 with opening costs halved: every optimum opens two or three facilities.
MULTIOPEN = GeneratorConfig(mode="cost-consistent", open_range=(4000, 6000))
CLI_ALGORITHMS = "hc,hs,sg"
# Relative slack on lb <= opt <= ub, for bounds computed in floating point.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Calls:
    """The package entry points a workload calls, plain or traced."""

    branch_and_bound: object
    ada: object
    cli_main: object
    generate_instance: object

    @staticmethod
    def plain() -> "Calls":
        return Calls(
            branch_and_bound=package_module("exact").branch_and_bound,
            ada=package_module("ada").ada,
            cli_main=package_module("cli").main,
            generate_instance=package_module("instance").generate_instance,
        )

    @staticmethod
    def traced(tracer: Tracer) -> "Calls":
        plain = Calls.plain()
        return Calls(**{
            key: tracer.wrap(f"bench.{key}", ENTRY_POINTS[f"bench.{key}"], getattr(plain, key))
            for key in ("branch_and_bound", "ada", "cli_main", "generate_instance")
        })


@dataclass
class Checked:
    ub: float
    lb: float
    problems: list


def _bracket(lb: float, opt: float, ub: float) -> list[str]:
    slack = BOUND_TOL * abs(opt)
    if lb <= opt + slack and opt <= ub + slack:
        return []
    return [f"bounds do not bracket the optimum: lb={lb!r} opt={opt!r} ub={ub!r}"]


def _infeasible(inst, solutions) -> list[str]:
    return [
        f"infeasible solution ({len(v)} violations, first: {v[0].message})"
        for v in (check_feasible(inst, s) for s in solutions) if v
    ]


class ExactMultiopen:
    """``branch_and_bound`` on 60x40 instances whose optima open 2 or 3 facilities."""

    name = "exact_multiopen"
    seeds = {"dev": (1, 2, 3, 4, 5, 6), "heldout": (7, 8, 9, 10, 11, 12)}
    expected_sites = ("bench.branch_and_bound", "exact.heuristic_hc")

    def setup(self, seeds, calls: Calls, workdir: Path) -> list:
        return [calls.generate_instance(60, 40, s, MULTIOPEN, name=f"m60_40_{s}") for s in seeds]

    def unit(self, inst, calls: Calls, workdir: Path):
        return calls.branch_and_bound(ProblemSpec.splpo(inst))

    def check(self, inst, res, record: dict) -> Checked:
        problems = _bracket(res.lower_bound, record["value"], res.value)
        if res.value != record["value"] or res.status != record["status"]:
            problems.append(
                f"got {res.value!r} ({res.status}), recorded {record['value']!r} ({record['status']})")
        if res.solution is None:
            problems.append("no solution returned")
        else:
            if len(res.solution.open_facilities) < 2:
                problems.append("optimum opens fewer than 2 facilities")
            problems += _infeasible(inst, [res.solution])
        return Checked(res.value, res.lower_bound, problems)


class AdaUniform:
    """The full pipeline on default uniform 60x40 instances (the nearest preset, 75x50)."""

    name = "ada_uniform"
    seeds = {"dev": (1, 2, 3, 4, 5, 6), "heldout": (7, 8, 9, 10, 11, 12)}
    expected_sites = (
        "bench.ada", "ada.heuristic_hc", "ada.subgradient_method", "lagrange.solve_lr",
        "semilagrange.solve_slr", "semilagrange.branch_and_bound", "ada.vfh",
        "ada.branch_and_bound", "exact.heuristic_hc", "ada.check_feasible",
    )

    def setup(self, seeds, calls: Calls, workdir: Path) -> list:
        return [calls.generate_instance(60, 40, s, name=f"a60_40_{s}") for s in seeds]

    def unit(self, inst, calls: Calls, workdir: Path):
        return calls.ada(inst, preset_config((inst.m, inst.n)))

    def check(self, inst, res, record: dict) -> Checked:
        problems = _bracket(res.best_lb, record["value"], res.best_ub)
        solutions = [res.best_solution, res.hc_solution, *res.vfh_solutions]
        problems += _infeasible(inst, [s for s in solutions if s is not None])
        return Checked(res.best_ub, res.best_lb, problems)


class CliScreen:
    """``splpo bench FILE --algorithms hc,hs,sg`` once per canonical file."""

    name = "cli_screen"
    seeds = {"dev": tuple(range(1, 9)), "heldout": tuple(range(9, 17))}
    expected_sites = (
        "bench.cli_main", "cli.generate_instance", "cli.write_instance", "cli.parse_instance",
        "cli.heuristic_hc", "cli.heuristic_hs", "cli.subgradient_method",
        "lagrange.heuristic_hc", "lagrange.solve_lr",
    )

    def setup(self, seeds, calls: Calls, workdir: Path) -> list:
        # splpo generate numbers its files 1..count from consecutive seeds.
        if tuple(seeds) != tuple(range(seeds[0], seeds[0] + len(seeds))):
            raise ValueError(f"cli_screen needs consecutive instance seeds, got {seeds}")
        out_dir = workdir / "instances"
        code, _ = _quiet(calls.cli_main, [
            "generate", "--m", "75", "--n", "50", "--seed", str(seeds[0]),
            "--count", str(len(seeds)), "--mode", "cost-consistent", "--tag", "c",
            "--out-dir", str(out_dir),
        ])
        if code != 0:
            raise RuntimeError(f"splpo generate exited {code}")
        return [out_dir / f"c75_50_{k}.splpo" for k in range(1, len(seeds) + 1)]

    def unit(self, path: Path, calls: Calls, workdir: Path):
        out = workdir / f"{path.stem}.csv"
        out.unlink(missing_ok=True)
        code, err = _quiet(
            calls.cli_main, ["bench", str(path), "--algorithms", CLI_ALGORITHMS, "--out", str(out)])
        return code, err, out

    def check(self, path: Path, res, record: dict) -> Checked:
        code, err, out = res
        if code != 0:
            return Checked(float("nan"), float("nan"), [f"exit {code}: {err.strip()}"])
        try:
            rows = {r.algorithm: r for r in RunReport.from_csv(out.read_text()).rows}
        except (OSError, ValueError, TypeError) as exc:
            return Checked(float("nan"), float("nan"), [f"unreadable report: {exc}"])
        problems = []
        if sorted(rows) != sorted(CLI_ALGORITHMS.split(",")):
            return Checked(float("nan"), float("nan"), [f"report rows {sorted(rows)}"])
        for r in rows.values():
            if r.prob != path.stem or r.status.startswith("error"):
                problems.append(f"{r.algorithm}: prob={r.prob} status={r.status}")
        ub = min(rows["hc"].best_ub, rows["hs"].best_ub)
        lb = rows["sg"].lower_bound
        problems += _bracket(lb, record["value"], ub)
        return Checked(ub, lb, problems)


def _quiet(fn, argv) -> tuple[int, str]:
    """Run the CLI with its stdout and stderr captured, so the benchmark's own
    output stays machine-readable."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, err.getvalue()


WORKLOADS = {w.name: w for w in (ExactMultiopen(), AdaUniform(), CliScreen())}


def load_optima() -> dict:
    return json.loads(OPTIMA_PATH.read_text())
