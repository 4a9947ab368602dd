#!/usr/bin/env python3
"""Time a threshold search against one fresh search at its last threshold.

A threshold search is a run of slr searches at rising thresholds, each
resuming the last; dual ascent is one. On
generate_instance(M, N, SEED, GeneratorConfig(open_range=...)) this script
takes the subgradient bound lb (subgradient_method at its default budget)
and searches at lb * (1 + k * STEP / 100) for k = 0, 1, ... until a search
opens a facility. It then searches once from the root at the last threshold,
and prints for each of the two its steps, the nodes it evaluated, the
frontier entries it rebuilt from their masks (where ExactResult has
`rebuilt`), its seconds and its value, and the ratio of the two times.

    python scripts/threshold_search.py            # cheap 60x40 seed 1, 1% steps
    python scripts/threshold_search.py --m 40 --n 25 --seed 2 --step 0.2

Run it with the package installed (or PYTHONPATH=src).
"""

import argparse
import time

from splpo import GeneratorConfig, ProblemSpec, branch_and_bound, generate_instance
from splpo import subgradient_method


def _line(label: str, steps: int, results: list, seconds: float) -> str:
    rebuilt = [getattr(res, "rebuilt", None) for res in results]
    shown = "n/a" if None in rebuilt else sum(rebuilt)
    return (f"{label:<8} steps={steps} nodes={sum(res.nodes for res in results)} "
            f"rebuilt={shown} seconds={seconds:.3f} value={results[-1].value!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=60, help="customers (default 60)")
    parser.add_argument("--n", type=int, default=40, help="facilities (default 40)")
    parser.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    parser.add_argument("--open-range", type=int, nargs=2, default=(500, 1000),
                        metavar=("LOW", "HIGH"), help="opening costs (default 500 1000)")
    parser.add_argument("--step", type=float, default=1.0,
                        help="threshold step, percent of the subgradient bound (default 1)")
    args = parser.parse_args(argv)
    if not args.step > 0:
        parser.error(f"--step must be positive, got {args.step}")

    inst = generate_instance(args.m, args.n, args.seed,
                             GeneratorConfig(open_range=tuple(args.open_range)))
    lb = subgradient_method(inst).best_value
    results = []
    start = time.perf_counter()
    while not results or results[-1].frontier is not None:
        threshold = lb * (1 + len(results) * args.step / 100)
        results.append(branch_and_bound(ProblemSpec.slr(inst, threshold),
                                        resume=results[-1] if results else None))
    chained = time.perf_counter() - start
    start = time.perf_counter()
    fresh = branch_and_bound(ProblemSpec.slr(inst, threshold))
    alone = time.perf_counter() - start

    print(f"instance {inst.m}x{inst.n} seed {args.seed}, subgradient bound {lb!r}, "
          f"steps of {args.step}%")
    print(_line("resumed", len(results), results, chained))
    print(_line("fresh", 1, [fresh], alone))
    print(f"ratio    {chained / alone:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
