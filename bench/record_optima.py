#!/usr/bin/env python3
"""Solve every benchmark instance exactly and write ``bench/optima.json``.

    python3 bench/record_optima.py

Run from the repository root, once, when the instance sets change. The
benchmark checks every unit's output against these values; they come from
``branch_and_bound`` without limits on the same instances the workloads
build in set-up, for both the dev and the held-out sets.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_package()
    from splpo import ProblemSpec, branch_and_bound, parse_instance
    from workloads import OPTIMA_PATH, WORKLOADS, Calls

    optima = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for wl in WORKLOADS.values():
            optima[wl.name] = {}
            for set_name, seeds in wl.seeds.items():
                for seed, inp in zip(seeds, wl.setup(seeds, Calls.plain(), Path(tmp))):
                    inst = parse_instance(inp.read_text()) if isinstance(inp, Path) else inp
                    res = branch_and_bound(ProblemSpec.splpo(inst))
                    optima[wl.name][str(seed)] = {
                        "value": res.value,
                        "status": res.status,
                        "open": len(res.solution.open_facilities),
                        "nodes": res.nodes,
                    }
                    print(wl.name, set_name, seed, optima[wl.name][str(seed)], flush=True)
    OPTIMA_PATH.write_text(json.dumps(optima, indent=1) + "\n")
    print(f"wrote {OPTIMA_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
