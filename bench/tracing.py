"""Spans around the package's public functions, recorded where they are called.

No package code changes for tracing: each call site below is a module-level
name that the calling module looks up at call time, so replacing that name
for the duration of a traced unit puts a span around every call made through
it. Modules are reached through ``importlib`` (that is, ``sys.modules``)
because ``splpo/__init__.py`` rebinds names such as ``splpo.ada`` to
functions.

Spans are kept in memory (name, start, end, parent span, run id, and a few
attributes read off the call's result) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

EXACT = "exact.branch_and_bound"

# (calling module, name it calls, span name). Every call into another layer
# that the three workloads make goes through one of these.
CALL_SITES = (
    ("exact", "heuristic_hc", "solution.heuristic_hc"),
    ("ada", "heuristic_hc", "solution.heuristic_hc"),
    ("lagrange", "heuristic_hc", "solution.heuristic_hc"),
    ("cli", "heuristic_hc", "solution.heuristic_hc"),
    ("cli", "heuristic_hs", "solution.heuristic_hs"),
    ("ada", "check_feasible", "solution.check_feasible"),
    ("ada", "branch_and_bound", EXACT),
    ("semilagrange", "branch_and_bound", EXACT),
    ("semilagrange", "solve_slr", "semilagrange.solve_slr"),
    ("ada", "vfh", "ada.vfh"),
    ("ada", "subgradient_method", "lagrange.subgradient_method"),
    ("cli", "subgradient_method", "lagrange.subgradient_method"),
    ("lagrange", "solve_lr", "lagrange.solve_lr"),
    ("cli", "parse_instance", "instance.parse_instance"),
    ("cli", "generate_instance", "instance.generate_instance"),
    ("cli", "write_instance", "instance.write_instance"),
)

# Entry points the benchmark itself calls: site name -> span name.
ENTRY_POINTS = {
    "bench.branch_and_bound": EXACT,
    "bench.ada": "ada.ada",
    "bench.cli_main": "cli.main",
    "bench.generate_instance": "instance.generate_instance",
}


def package_module(name: str):
    return importlib.import_module(f"splpo.{name}")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    unit: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NodeStats:
    """The engine's ``on_node`` hook: counts nodes, bound-pruned nodes, the
    root bound, and the node at which the incumbent value last changed."""

    __slots__ = ("nodes", "pruned", "root_bound", "incumbent", "changed_at")

    def __init__(self):
        self.nodes = 0
        self.pruned = 0
        self.root_bound = None
        self.incumbent = None
        self.changed_at = 0

    def __call__(self, depth, open_mask, closed_mask, bound, incumbent):
        self.nodes += 1
        if depth == 0 and self.root_bound is None:
            self.root_bound = bound
        if bound >= incumbent:
            self.pruned += 1
        if incumbent != self.incumbent:
            self.incumbent = incumbent
            self.changed_at = self.nodes

    def found_at(self, final_value) -> int:
        """Nodes expanded before the final incumbent first existed."""
        if self.incumbent == final_value:
            return self.changed_at - 1
        return self.nodes  # found while evaluating the last node


def _exact_attrs(args, kwargs, result, hook) -> dict:
    spec = args[0] if args else kwargs["spec"]
    return {
        "kind": spec.kind,
        "forced": len(spec.forced_open),
        "nodes": result.nodes,
        "status": result.status,
        "value": result.value,
        "root_bound": hook.root_bound,
        "pruned": hook.pruned,
        "found_at": hook.found_at(result.value),
    }


def _result_attrs(name, result) -> dict:
    if name == "semilagrange.solve_slr":
        return {"nodes": result.nodes}
    if name == "lagrange.subgradient_method":
        return {"iterations": result.iterations}
    if name == "ada.ada":
        return {"timings": dict(result.timings)}
    return {}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.site_calls = dict.fromkeys(
            [f"{mod}.{attr}" for mod, attr, _ in CALL_SITES] + list(ENTRY_POINTS), 0
        )
        self.unit: int | None = None
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.unit)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, unit: int | None = None):
        """A span opened by the benchmark itself; ``unit`` tags its subtree."""
        self.unit = unit
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.unit = None

    def wrap(self, site: str, name: str, fn):
        def traced(*args, **kwargs):
            self.site_calls[site] += 1
            hook = None
            if name == EXACT:
                hook = NodeStats()
                outer = kwargs.get("on_node")
                kwargs["on_node"] = hook if outer is None else _chain(hook, outer)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span.attrs = _exact_attrs(args, kwargs, result, hook)
            else:
                span.attrs = _result_attrs(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every call-site name for the duration of the block.

        A call site that no longer exists raises AttributeError here, so a
        refactor that renames one cannot leave a layer silently untraced.
        """
        patched = []
        try:
            for mod, attr, name in CALL_SITES:
                module = package_module(mod)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(f"{mod}.{attr}", name, original))
                patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
                    "unit": s.unit, "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def _chain(first, second):
    def both(*args):
        first(*args)
        second(*args)
    return both


def missing_sites(tracer: Tracer, expected) -> list[str]:
    return [site for site in expected if not tracer.site_calls.get(site)]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Sums over one unit's spans. Counts repeat exactly from unit to unit of the
# same instance; times are combined by their median across those units.
_COUNTS = (
    "exact.calls", "exact.nodes", "exact.pruned", "exact.found_at",
    "exact.root_gap_sum", "exact.root_gap_n",
    "semilagrange.steps", "semilagrange.slr_nodes", "semilagrange.max_step_nodes",
    "ada.vfh_calls", "ada.vfh_nodes",
    "lagrange.sg.calls", "lagrange.sg.iterations", "lagrange.solve_lr.calls",
    "solution.hc.calls",
)


def _unit_sums(spans: list[Span]) -> dict:
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent in by_id:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = dict.fromkeys(_COUNTS, 0)
    times = dict.fromkeys((
        "exact.s", "semilagrange.s", "ada.hc_s", "ada.sg_s", "ada.da_s", "ada.vfh_s",
        "lagrange.sg.s", "lagrange.solve_lr.s", "solution.hc.s", "solution.hs.s",
        "solution.check_feasible.s", "instance.parse.s", "cli.s", "cli.self_s",
    ), 0.0)
    for s in spans:
        d, a = s.duration, s.attrs
        if s.name == EXACT:
            out["exact.calls"] += 1
            out["exact.nodes"] += a["nodes"]
            out["exact.pruned"] += a["pruned"]
            out["exact.found_at"] += a["found_at"]
            times["exact.s"] += d - child_time.get(s.id, 0.0)
            if a["kind"] == "splpo" and a["status"] == "optimal":
                out["exact.root_gap_sum"] += 100.0 * (a["value"] - a["root_bound"]) / a["value"]
                out["exact.root_gap_n"] += 1
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "ada.vfh":
                out["ada.vfh_nodes"] += a["nodes"]
        elif s.name == "semilagrange.solve_slr":
            out["semilagrange.steps"] += 1
            out["semilagrange.slr_nodes"] += a["nodes"]
            out["semilagrange.max_step_nodes"] = max(out["semilagrange.max_step_nodes"], a["nodes"])
            times["semilagrange.s"] += d
        elif s.name == "ada.ada":
            for stage in ("hc", "sg", "da", "vfh"):
                times[f"ada.{stage}_s"] += a["timings"].get(stage, 0.0)
        elif s.name == "ada.vfh":
            out["ada.vfh_calls"] += 1
        elif s.name == "lagrange.subgradient_method":
            out["lagrange.sg.calls"] += 1
            out["lagrange.sg.iterations"] += a["iterations"]
            times["lagrange.sg.s"] += d
        elif s.name == "lagrange.solve_lr":
            out["lagrange.solve_lr.calls"] += 1
            times["lagrange.solve_lr.s"] += d
        elif s.name == "solution.heuristic_hc":
            out["solution.hc.calls"] += 1
            times["solution.hc.s"] += d
        elif s.name == "solution.heuristic_hs":
            times["solution.hs.s"] += d
        elif s.name == "solution.check_feasible":
            times["solution.check_feasible.s"] += d
        elif s.name == "instance.parse_instance":
            times["instance.parse.s"] += d
        elif s.name == "cli.main":
            times["cli.s"] += d
            times["cli.self_s"] += d - child_time.get(s.id, 0.0)
    out.update(times)
    return out


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, unit_instance: dict, setups: int) -> dict:
    """Per-layer metrics for one pass over the workload's instances.

    ``unit_instance`` maps each traced unit id to its instance index. Each
    instance contributes the median of its traced units, so the result does
    not depend on how many units the deadline allowed.
    """
    spans_by_unit: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.unit is not None:
            spans_by_unit.setdefault(s.unit, []).append(s)
    per_instance: dict[int, list[dict]] = {}
    for unit, spans in spans_by_unit.items():
        per_instance.setdefault(unit_instance[unit], []).append(_unit_sums(spans))

    total: dict[str, float] = {}
    for rows in per_instance.values():
        for key in rows[0]:
            value = statistics.median(r[key] for r in rows)
            if key == "semilagrange.max_step_nodes":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value

    setup_spans = [s for s in tracer.spans if s.unit is None]

    def per_setup(name):
        return sum(s.duration for s in setup_spans if s.name == name) / setups

    nodes = total["exact.nodes"]
    derived = {
        "exact.us_per_node": _ratio(total["exact.s"], nodes, 1e6),
        "exact.pruned_frac": _ratio(total.pop("exact.pruned"), nodes),
        "exact.root_gap_pct": _ratio(total.pop("exact.root_gap_sum"), total.pop("exact.root_gap_n")),
        "exact.incumbent_node_frac": _ratio(total.pop("exact.found_at"), nodes),
        "lagrange.solve_lr.us_per_call": _ratio(
            total.pop("lagrange.solve_lr.s"), total["lagrange.solve_lr.calls"], 1e6),
        "instance.generate.s": per_setup("instance.generate_instance"),
        "instance.write.s": per_setup("instance.write_instance"),
    }
    return {**total, **derived}
