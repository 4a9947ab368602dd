#!/usr/bin/env python3
"""Desk-scale benchmark sweep.

Generates seeded instance suites, runs the bound heuristics, the subgradient
and dual-ascent bounds, the full pipeline, and the exact engine through
`splpo bench`, and writes its per-algorithm comparison table (CSV) plus a
pipeline summary table read from the `ada` and `exact` rows of that table
(both are added to --algorithms when missing).

    python scripts/run_benchmark.py --out results/ --seeds 4
    python scripts/run_benchmark.py --sizes 40x25,60x40 --algorithms hc,hs,ada,exact
"""

import argparse
import csv
import sys
from pathlib import Path

from splpo.cli import main as cli_main
from splpo.report import RunReport


def parse_sizes(text):
    sizes = []
    for chunk in text.split(","):
        m, n = chunk.lower().split("x")
        sizes.append((int(m), int(n)))
    return sizes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--sizes", type=parse_sizes, default=[(40, 25), (60, 40)])
    parser.add_argument("--seeds", type=int, default=4, help="instances per size")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--algorithms", default="hc,hs,sg,da,ada,exact")
    args = parser.parse_args(argv)

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    algorithms += [a for a in ("ada", "exact") if a not in algorithms]

    args.out.mkdir(parents=True, exist_ok=True)
    inst_dir = args.out / "instances"

    paths = []
    for m, n in args.sizes:
        code = cli_main([
            "generate", "--m", str(m), "--n", str(n), "--seed", str(args.seed0),
            "--count", str(args.seeds), "--out-dir", str(inst_dir),
        ])
        if code != 0:
            return code
        # Exactly this run's files, in seed order: a reused --out directory
        # may hold more seeds of the same size from an earlier run.
        paths += [str(inst_dir / f"a{m}_{n}_{k}.splpo") for k in range(1, args.seeds + 1)]

    bench_csv = args.out / "bench.csv"
    code = cli_main([
        "bench", *paths, "--algorithms", ",".join(algorithms), "--out", str(bench_csv),
    ])
    if code != 0:
        return code

    # Pipeline summary table, in size-then-seed order; the bench table holds
    # the pipeline's rows (per-size presets) and the exact reference values.
    report = RunReport.from_csv(bench_csv.read_text())
    bench = {(row.prob, row.algorithm): row for row in report.rows}
    summary_path = args.out / "ada_summary.csv"
    rows = []
    for m, n in args.sizes:
        for k in range(args.seeds):
            name = f"a{m}_{n}_{k + 1}"
            ada_row = bench[(name, "ada")]
            row = {
                "Prob": name,
                "Optimal?": (ada_row.gap_abs is not None and abs(ada_row.gap_abs) <= 1e-9) or None,
                "bestUB": ada_row.best_ub,
                "LB": ada_row.lower_bound,
                "y_j": ada_row.y_count,
                "t": ada_row.time_s,
                "Tt": ada_row.total_time_s,
                "GAP_o%": ada_row.gap_pct,
                "exact_t": bench[(name, "exact")].total_time_s,
            }
            rows.append(row)
            print(f"{name}: opt={ada_row.opt:.0f} ada={ada_row.best_ub:.0f} "
                  f"gap={row['GAP_o%']:.3f}% Tt={row['Tt']}s")
    with summary_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"\nwrote {bench_csv} and {summary_path}")
    gaps = [row["GAP_o%"] for row in rows]
    print(f"pipeline mean gap: {sum(gaps) / len(gaps):.3f}% over {len(gaps)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
