"""Solvers for the simple plant location problem with customer preference
rankings: exact branch and bound, greedy bounds, Lagrangean and
semi-Lagrangean duals, and the accelerated dual ascent pipeline."""

from .ada import AdaConfig, AdaResult, PRESETS, ada, preset_config, vfh
from .exact import ExactResult, ProblemSpec, branch_and_bound, brute_force
from .instance import (
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    facility_sort_keys,
    generate_instance,
    parse_instance,
    parse_orlib,
    write_instance,
)
from .lagrange import (
    LagrangeMultipliers,
    LrSolution,
    SgResult,
    default_start,
    solve_lr,
    subgradient_method,
)
from .report import ReportRow, RunReport, config_hash, gap_fields
from .semilagrange import DualAscent, dual_ascent, solve_slr
from .solution import (
    Solution,
    UNASSIGNED,
    Violation,
    assign_most_preferred,
    check_feasible,
    heuristic_hc,
    heuristic_hs,
    objective,
    solution_to_json,
)

__version__ = "0.1.0"
