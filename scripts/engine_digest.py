#!/usr/bin/env python3
"""One sha256 over the exact engine's and subgradient results on a fixed, seeded set.

Runs splpo, forced-open, node-limited, slr and resumed slr searches, plus
the full ada pipeline and whole subgradient runs, on seeded instances, and
hashes every on_node record, every ExactResult repr, every resumed frontier,
the ada results and each subgradient run (trace rows, best multipliers,
best value, status and iteration counts), and on each instance the greedy
hs and hc solutions (open set, assignment, objective and provenance).
Floats enter the hash by their bits, so two checkouts that print the same
line return the same values, bounds, node sequences, multipliers and
solutions, ties included. Timings are left out.

    python scripts/engine_digest.py          # the full set, a few seconds
    python scripts/engine_digest.py --quick  # a small subset

Run it with the package installed (or PYTHONPATH=src) on two checkouts: the
same line means the same results.
"""

import argparse
import hashlib

import numpy as np

from splpo import (
    GeneratorConfig,
    Instance,
    ProblemSpec,
    ada,
    branch_and_bound,
    generate_instance,
    heuristic_hc,
    heuristic_hs,
    preset_config,
    subgradient_method,
)
from splpo.lagrange import SG_MAX_ITER

MULTIOPEN = GeneratorConfig(mode="cost-consistent", open_range=(4000, 6000))
CHEAP = GeneratorConfig(open_range=(500, 1000))
CONSISTENT = GeneratorConfig(mode="cost-consistent")


def _feed(h, obj) -> None:
    """Hash obj so that equal bits give equal bytes: arrays by dtype, shape
    and buffer, floats by their hex form, containers element by element."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(f"r{obj!r}".encode())


def _non_integer(seed: int) -> Instance:
    """A 40x16 instance whose costs are not integers, so sums depend on their order."""
    rng = np.random.default_rng(seed)
    base = generate_instance(40, 16, seed)
    return Instance(f=base.f * rng.uniform(0.05, 0.15, base.n) + rng.random(base.n),
                    c=base.c + rng.random((base.m, base.n)), p=base.p, name=f"float{seed}")


def _search(h, spec, **kwargs):
    records = []
    res = branch_and_bound(spec, on_node=lambda *rec: records.append(rec), **kwargs)
    _feed(h, records)
    _feed(h, repr(res))
    _feed(h, res.lower_bound)
    if res.frontier is not None:
        _feed(h, (res.value, res.frontier.entries))
    return res


def _slr_chain(h, inst, fractions) -> None:
    """slr searches at growing thresholds, each resuming the last while it opened nothing."""
    opt = branch_and_bound(ProblemSpec.splpo(inst)).value
    last = None
    for fraction in fractions:
        last = _search(h, ProblemSpec.slr(inst, fraction * opt),
                       resume=last if last is not None and last.frontier is not None else None)


def _heuristics(h, inst) -> None:
    for sol in (heuristic_hs(inst), heuristic_hc(inst)):
        _feed(h, (sorted(sol.open_facilities), sol.assign, sol.objective,
                  sorted(sol.provenance.items())))


def _ada(h, inst) -> None:
    res = ada(inst, preset_config((inst.m, inst.n)))
    _feed(h, (res.best_ub, res.lb_sg, res.lb_da, res.da_status, repr(res.da_trace),
              repr(res.best_solution), repr(res.hc_solution), repr(res.vfh_solutions)))


def _sg(h, inst, max_iter) -> None:
    res = subgradient_method(inst, max_iter)
    _feed(h, (repr(res.trace), res.best_mu, res.best_lam, res.best_value, res.status,
              res.iterations, res.best_iteration))


def digest(quick: bool = False) -> str:
    """The sha256 of the full set, or with quick of a small subset of it."""
    h = hashlib.sha256()
    for seed in range(1, 3 if quick else 13):
        inst = generate_instance(60, 40, seed, MULTIOPEN)
        _search(h, ProblemSpec.splpo(inst))
        _search(h, ProblemSpec.splpo(inst, forced_open=[seed % inst.n, (7 * seed) % inst.n]))
        _search(h, ProblemSpec.splpo(inst), node_limit=150)
        _slr_chain(h, inst, (0.6, 0.9, 0.99, 1.05))
        _heuristics(h, inst)
    for seed in range(1, 2 if quick else 4):
        inst = _non_integer(seed)
        _search(h, ProblemSpec.splpo(inst))
        _search(h, ProblemSpec.splpo(inst, forced_open=[seed % inst.n]))
        _slr_chain(h, inst, (0.5, 0.95, 1.2))
        _heuristics(h, inst)
    if not quick:
        for seed in (1, 2):
            for inst, limit in ((generate_instance(75, 50, seed, CONSISTENT), None),
                                (generate_instance(40, 25, seed, CHEAP), 4000)):
                _search(h, ProblemSpec.splpo(inst), node_limit=limit)
                _heuristics(h, inst)
            # The scale where the savings-dual grid decides most prunes.
            _search(h, ProblemSpec.splpo(generate_instance(100, 75, seed, CONSISTENT)))
    for seed in range(1, 2 if quick else 3):
        # The `splpo bench` sg row, and ada's warm-up on 60x40.
        _sg(h, generate_instance(75, 50, seed, CONSISTENT), SG_MAX_ITER)
        _sg(h, generate_instance(60, 40, seed), 50)
    for seed in range(1, 3 if quick else 13):
        inst = generate_instance(60, 40, seed)
        _ada(h, inst)
        _heuristics(h, inst)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a small subset, for a smoke test")
    args = parser.parse_args(argv)
    print(digest(args.quick))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
