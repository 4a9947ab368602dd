#!/usr/bin/env python3
"""Desk-scale benchmark sweep.

Generates seeded instance suites, runs the bound heuristics, the subgradient
and dual-ascent bounds, the full pipeline, and the exact engine, and writes
per-algorithm comparison tables (CSV) plus a pipeline summary table.

    python scripts/run_benchmark.py --out results/ --seeds 4
    python scripts/run_benchmark.py --sizes 40x25,60x40 --algorithms hc,hs,ada,exact
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from splpo import (
    ProblemSpec,
    ada,
    ada_table_row,
    branch_and_bound,
    generate_instance,
    preset_config,
)
from splpo.cli import main as cli_main


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
        paths.extend(sorted(str(p) for p in inst_dir.glob(f"a{m}_{n}_*.splpo")))

    bench_csv = args.out / "bench.csv"
    code = cli_main([
        "bench", *paths, "--algorithms", args.algorithms, "--out", str(bench_csv),
    ])
    if code != 0:
        return code

    # Pipeline summary table with per-size presets and exact reference values.
    summary_path = args.out / "ada_summary.csv"
    rows = []
    for m, n in args.sizes:
        cfg = preset_config((m, n))
        for k in range(args.seeds):
            name = f"a{m}_{n}_{k + 1}"
            inst = generate_instance(m, n, args.seed0 + k, name=name)
            t0 = time.perf_counter()
            opt = branch_and_bound(ProblemSpec.splpo(inst)).value
            exact_t = time.perf_counter() - t0
            result = ada(inst, cfg)
            row = ada_table_row(name, result, opt=opt)
            row["exact_t"] = round(exact_t, 3)
            rows.append(row)
            print(f"{name}: opt={opt:.0f} ada={result.best_ub:.0f} "
                  f"gap={row['GAP_o%']:.3f}% Tt={row['Tt']}s")
    with summary_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"\nwrote {bench_csv} and {summary_path}")
    gaps = [row["GAP_o%"] for row in rows]
    print(f"pipeline mean gap: {np.mean(gaps):.3f}% over {len(gaps)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
