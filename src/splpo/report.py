"""Run reports: per-instance result rows, written as CSV and read back."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from .instance import Record


class ReportRow(Record):
    __slots__ = ("prob", "algorithm", "status", "best_ub", "lower_bound", "opt", "gap_abs",
                 "gap_pct", "y_count", "iterations", "best_iteration", "time_s", "total_time_s",
                 "seed", "config_hash")

    def __init__(self, prob: str, algorithm: str, status: str, best_ub: float | None = None,
                 lower_bound: float | None = None, opt: float | None = None,
                 gap_abs: float | None = None, gap_pct: float | None = None,
                 y_count: int | None = None, iterations: int | None = None,
                 best_iteration: int | None = None, time_s: float | None = None,
                 total_time_s: float | None = None, seed: int | None = None,
                 config_hash: str = ""):
        self.prob = prob
        self.algorithm = algorithm
        self.status = status
        self.best_ub = best_ub
        self.lower_bound = lower_bound
        self.opt = opt
        self.gap_abs = gap_abs
        self.gap_pct = gap_pct
        self.y_count = y_count
        self.iterations = iterations
        self.best_iteration = best_iteration
        self.time_s = time_s
        self.total_time_s = total_time_s
        self.seed = seed
        self.config_hash = config_hash


_FLOAT_FIELDS = {"best_ub", "lower_bound", "opt", "gap_abs", "gap_pct", "time_s", "total_time_s"}
_INT_FIELDS = {"y_count", "iterations", "best_iteration", "seed"}
_REQUIRED_FIELDS = ("prob", "algorithm", "status")  # the ones without a default


def gap_fields(best_ub: float | None, opt: float | None) -> tuple[float | None, float | None]:
    """Absolute and relative (percent) gap of an upper bound against an optimum."""
    if best_ub is None or opt is None:
        return None, None
    gap = best_ub - opt
    pct = 100.0 * gap / opt if opt != 0 else (0.0 if gap == 0 else math.inf)
    return gap, pct


def config_hash(payload: dict) -> str:
    """Short stable hash of an effective-configuration mapping."""
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


class RunReport(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ReportRow.__slots__, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.asdict().items()})
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "RunReport":
        """Read to_csv's format; an absent optional column takes its default.
        ValueError naming the columns for a header with a column that a report
        does not have or without a required one (prob, algorithm, status), and
        for a row with more or fewer cells than the header."""
        reader = csv.DictReader(io.StringIO(text))
        header = reader.fieldnames or []
        if header:
            _check_columns(header)
        rows = []
        for rec in reader:
            # DictReader keys cells past the header's by None and fills a
            # short row's missing cells with None; empty cells read as "".
            if None in rec or None in rec.values():
                raise ValueError(f"report line {reader.line_num} has "
                                 f"{'more' if None in rec else 'fewer'} cells than the "
                                 f"{len(header)} columns of its header")
            kwargs = {}
            for key, raw in rec.items():
                if raw == "" or raw is None:
                    kwargs[key] = None
                elif key in _FLOAT_FIELDS:
                    kwargs[key] = float(raw)
                elif key in _INT_FIELDS:
                    kwargs[key] = int(raw)
                else:
                    kwargs[key] = raw
            if kwargs.get("config_hash") is None:
                kwargs["config_hash"] = ""
            rows.append(ReportRow(**kwargs))
        return RunReport(rows=rows)


def _check_columns(names) -> None:
    """ValueError naming the columns unless ``names`` are a report's: all
    known, and the required ones (those without a default) present."""
    unknown = [name for name in names if name not in ReportRow.__slots__]
    missing = [name for name in _REQUIRED_FIELDS if name not in names]
    if unknown or missing:
        raise ValueError(
            f"not a report: unknown columns {unknown}, missing required columns {missing}; "
            f"a report has the columns {', '.join(ReportRow.__slots__)}")


__all__ = ["ReportRow", "RunReport", "config_hash", "gap_fields"]
