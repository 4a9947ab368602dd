"""Run reports: per-instance result rows with CSV and JSON round-trips."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class ReportRow:
    prob: str
    algorithm: str
    status: str
    best_ub: float | None = None
    lower_bound: float | None = None
    opt: float | None = None
    gap_abs: float | None = None
    gap_pct: float | None = None
    y_count: int | None = None
    iterations: int | None = None
    best_iteration: int | None = None
    time_s: float | None = None
    total_time_s: float | None = None
    seed: int | None = None
    config_hash: str = ""


_FLOAT_FIELDS = {"best_ub", "lower_bound", "opt", "gap_abs", "gap_pct", "time_s", "total_time_s"}
_INT_FIELDS = {"y_count", "iterations", "best_iteration", "seed"}


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


@dataclass
class RunReport:
    rows: list

    def to_csv(self) -> str:
        names = [f.name for f in fields(ReportRow)]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            rec = asdict(row)
            writer.writerow({k: ("" if v is None else v) for k, v in rec.items()})
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "RunReport":
        rows = []
        for rec in csv.DictReader(io.StringIO(text)):
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

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.rows], indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport(rows=[ReportRow(**rec) for rec in json.loads(text)])


__all__ = ["ReportRow", "RunReport", "config_hash", "gap_fields"]
