#!/usr/bin/env python3
"""Seeded, layered timing benchmark for splpo.

    python3 bench/run.py --workload exact_multiopen --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli_screen --seed 7 --seconds 30 --trace 1
    python3 bench/run.py --workload ada_uniform --seed 3 --seconds 30 --trace 0 --set heldout

Run from the repository root. One process runs one unit at a time (closed
loop, single client) until ``--seconds`` have passed, after at least one full
pass over the workload's instances. Every unit's output is checked against
the recorded optima; a wrong answer, an exception or a non-zero CLI exit
counts as a failed unit and the run goes on. The metric table is printed
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``). A full record, with the environment, goes to
``bench/out/``; a traced run also writes its spans there.
"""

import os

# Single-threaded numerical libraries, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up is repeated between units, so that its repetitions (at least
# SETUP_REPS, about SETUP_SHARE of the run) span the same stretch of time as
# the units, and its median is reported: the host's speed drifts by tens of
# percent over seconds, and one burst of set-ups would catch only one moment.
SETUP_REPS = 5
SETUP_SHARE = 0.1
# The host's speed changes by up to 2x, within seconds and from one minute
# to the next, and moves every piece of code alike only roughly. So a fixed
# reference kernel is timed right before and after every unit and every
# set-up, and each of those is reported as its time over the mean of the two
# kernel times, scaled by the kernel's time on the reference host: the
# seconds it would take on a host on which the kernel takes exactly that long.
# Raw seconds are kept in the record and printed beside them.
REF_KERNEL_S = 0.025
REF_SETUP_KERNEL_S = 0.040


class HostSpeed:
    """Times a reference kernel on fixed data, independent of the package.

    The kernel is the engine's kind of work: masked minima, clipped
    differences and sums over a small cost matrix, driven from a Python loop.
    With ``text`` it also formats numbers into lines of text and parses them
    back, as writing and reading instance files does; set-ups, which import
    modules and write files, are compared with that one.
    """

    LOOPS = 500
    TEXT_LOOPS = 10

    def __init__(self, text: bool = False):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.costs = rng.random((60, 40))
        self.mask = rng.random(40) < 0.5
        self.values = [float(1000 + (i * 7919) % 1000) for i in range(2500)] if text else []
        self.times: list[float] = []
        self.tick()  # numpy's first calls are slower; not recorded
        self.times.clear()

    def tick(self) -> float:
        np, costs, mask, values = self.np, self.costs, self.mask.copy(), self.values
        acc = 0.0
        t0 = perf_counter()
        for k in range(self.LOOPS):
            cmin = np.min(np.where(mask[None, :], costs, np.inf), axis=1)
            gains = np.maximum(cmin[:, None] - costs, 0.0)
            acc += float(gains.sum(axis=0).max())
            mask[(k * 17) % 40] ^= True
        for _ in range(self.TEXT_LOOPS if values else 0):
            text = "\n".join(" ".join(str(int(v)) for v in values[r:r + 50])
                             for r in range(0, len(values), 50))
            acc += sum(int(x) for x in text.split())
        elapsed = perf_counter() - t0
        self.times.append(elapsed)
        return elapsed


def import_package() -> float:
    """Import splpo from this checkout's sources; returns the seconds taken."""
    if not (SRC / "splpo" / "__init__.py").is_file():
        raise SystemExit(f"error: no splpo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import splpo
    import workloads  # noqa: F401  (imports the rest of the package)
    elapsed = perf_counter() - t0
    if not Path(splpo.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: splpo was imported from {splpo.__file__}, not {SRC}")
    return elapsed


def _is_package(key: str) -> bool:
    return key == "splpo" or key.startswith("splpo.")


def time_package_import() -> float:
    """Seconds to import splpo afresh, as a set-up repetition does.

    numpy stays loaded. The fresh modules are discarded afterwards and the
    ones the benchmark already holds are put back, so every call the
    benchmark makes still goes through the modules it may have patched.
    """
    saved = {k: m for k, m in sys.modules.items() if _is_package(k)}
    for key in saved:
        del sys.modules[key]
    try:
        t0 = perf_counter()
        importlib.import_module("splpo.cli")
        return perf_counter() - t0
    finally:
        for key in [k for k in sys.modules if _is_package(k)]:
            del sys.modules[key]
        sys.modules.update(saved)


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def schedule(count: int, seed: int):
    """Endless visiting order: a fresh seeded permutation per pass."""
    rng = random.Random(seed)
    while True:
        yield from rng.sample(range(count), count)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _mean_finite(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.fmean(finite) if finite else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, instance_set: str = "dev",
        instance_seeds: tuple | None = None, spans_out: Path | None = None) -> dict:
    """Set up, run and check one workload; returns the full record.

    With ``trace`` each unit is run twice, untraced and traced in alternating
    order, so the record also carries the tracing overhead, and the spans go
    to ``spans_out`` if given. ``instance_seeds`` replaces the set's instances
    with recorded ones of the benchmark's own test's choosing.
    """
    from tracing import Tracer, layer_metrics, missing_sites
    from workloads import WORKLOADS, Calls, load_optima

    wl = WORKLOADS[name]
    seeds = instance_seeds or wl.seeds[instance_set]
    records = [load_optima()[name][str(s)] for s in seeds]
    tracer = Tracer(f"{name}-{instance_set}-seed{seed}-pid{os.getpid()}") if trace else None
    plain = Calls.plain()
    calls = Calls.traced(tracer) if trace else plain
    workdir = OUT / f"work-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times: list[float] = []
    setup_ratios: list[float] = []
    host, setup_host = HostSpeed(), HostSpeed(text=True)
    host.tick()

    def relative(speed: HostSpeed, elapsed: float) -> float:
        """``elapsed`` over the kernel times before and after it (one tick)."""
        before = speed.times[-1]
        return elapsed / (0.5 * (before + speed.tick()))

    def set_up() -> list:
        setup_host.tick()
        t0 = perf_counter()
        time_package_import()
        if trace:
            with tracer.installed(), tracer.span("bench.setup"):
                inputs = wl.setup(seeds, calls, workdir)
        else:
            inputs = wl.setup(seeds, calls, workdir)
        setup_times.append(perf_counter() - t0)
        setup_ratios.append(relative(setup_host, setup_times[-1]))
        # The modules of the fresh import are cyclic garbage. Collected here,
        # untimed, so that peak memory does not grow with the number of set-ups.
        gc.collect()
        return inputs

    times = {False: [[] for _ in seeds], True: [[] for _ in seeds]}
    ratios: list[list[float]] = [[] for _ in seeds]
    bounds: list = [None] * len(seeds)
    unit_instance: dict[int, int] = {}
    attempted = failed = 0
    failures = []
    try:
        start = perf_counter()
        inputs = set_up()
        for n, i in enumerate(schedule(len(seeds), seed)):
            if n >= len(seeds) and perf_counter() - start >= seconds:
                break
            while sum(setup_times) < SETUP_SHARE * (perf_counter() - start):
                inputs = set_up()
            modes = (False,) if not trace else ((False, True) if n % 2 == 0 else (True, False))
            for traced in modes:
                attempted += 1
                out = error = None
                t0 = perf_counter()
                try:
                    if traced:
                        unit = len(unit_instance)
                        unit_instance[unit] = i
                        with tracer.installed(), tracer.span("bench.unit", unit=unit):
                            out = wl.unit(inputs[i], calls, workdir)
                    else:
                        out = wl.unit(inputs[i], plain, workdir)
                except Exception as exc:  # a failed unit is counted, not fatal
                    error = exc
                times[traced][i].append(perf_counter() - t0)
                if not traced:
                    ratios[i].append(relative(host, times[traced][i][-1]))
                try:
                    if error is not None:
                        raise error
                    checked = wl.check(inputs[i], out, records[i])
                except Exception as exc:  # the unit's or the check's, counted alike
                    checked = None
                    problems = [f"{type(exc).__name__}: {exc}"]
                if checked is not None:
                    problems = checked.problems
                    got = (checked.ub, checked.lb)
                    if not problems and bounds[i] is None:
                        bounds[i] = got
                    elif not problems and bounds[i] != got:
                        problems = [f"bounds {got} differ from an earlier unit's {bounds[i]}"]
                if problems:
                    failed += 1
                    failures.append({"instance_seed": seeds[i], "traced": traced,
                                     "problems": problems[:5]})
        while len(setup_times) < SETUP_REPS:
            set_up()
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [statistics.median(t) for t in times[False]]
    relative_units = [REF_KERNEL_S * statistics.median(r) for r in ratios]
    opts = [r["value"] for r in records]
    e2e = {
        "setup_s": REF_SETUP_KERNEL_S * statistics.median(setup_ratios),
        "wall_s": sum(relative_units),
        "solve_s_p50": statistics.median(relative_units),
        "ub_pct_of_opt": _mean_finite(100.0 * b[0] / o for b, o in zip(bounds, opts) if b),
        "lb_pct_of_opt": _mean_finite(100.0 * b[1] / o for b, o in zip(bounds, opts) if b),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": name, "set": instance_set, "seed": seed, "seconds": seconds,
        "trace": int(trace), "instance_seeds": list(seeds),
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "elapsed_s": elapsed, "setup_reps_s": setup_times,
        "raw_s": {"setup_s": statistics.median(setup_times), "wall_s": sum(untraced),
                  "solve_s_p50": statistics.median(untraced)},
        "kernel_s": statistics.median(host.times), "ref_kernel_s": REF_KERNEL_S,
        "setup_kernel_s": statistics.median(setup_host.times),
        "ref_setup_kernel_s": REF_SETUP_KERNEL_S,
        "kernel_times_s": host.times, "setup_kernel_times_s": setup_host.times,
        "unit_ratios": {str(s): ratios[k] for k, s in enumerate(seeds)},
        "setup_ratios": setup_ratios,
        "unit_times_s": {str(s): times[False][k] for k, s in enumerate(seeds)},
        "samples": sum(len(t) for t in times[False]),
        "end_to_end": e2e,
    }
    if trace:
        missing = missing_sites(tracer, wl.expected_sites)
        if missing:
            raise SystemExit(
                f"error: {name} made no calls through {', '.join(missing)}; "
                "a call site moved, so bench/tracing.py must follow it")
        traced_wall = sum(statistics.median(t) for t in times[True])
        layers = layer_metrics(tracer, unit_instance, len(setup_times))
        layers["trace.wall_s"] = traced_wall
        untraced_wall = record["raw_s"]["wall_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
        record["per_layer"] = layers
        record["traced_unit_times_s"] = {str(s): times[True][k] for k, s in enumerate(seeds)}
        record["site_calls"] = dict(tracer.site_calls)
        if spans_out is not None:
            tracer.write(spans_out)
    return record


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", dest="instance_set", choices=("dev", "heldout"), default="dev",
                        help="instance set; heldout checks a claim on instances not used "
                             "while developing it")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_s = import_package()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.instance_set}-seed{args.seed}-trace{args.trace}"
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace), args.instance_set,
              spans_out=OUT / f"{stem}-spans.jsonl")
    rec["first_import_s"] = import_s
    metrics = rec["per_layer"] if args.trace else rec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")

    rec["environment"] = environment()
    (OUT / f"{stem}.json").write_text(json.dumps(rec, indent=2) + "\n")

    print(f"{args.workload} ({args.instance_set}, seed {args.seed}): "
          f"{rec['attempted']} units, {rec['failed']} failed, {rec['samples']} untraced samples")
    if not args.trace:
        print(f"  times at the reference host speed; raw seconds beside them "
              f"(reference kernels {1e3 * rec['kernel_s']:.2f} and "
              f"{1e3 * rec['setup_kernel_s']:.2f} ms here, {1e3 * REF_KERNEL_S:.0f} "
              f"and {1e3 * REF_SETUP_KERNEL_S:.0f} ms at the reference)")
    for key in units:
        note = f"  ({rec['raw_s'][key]:.6g} s raw)" if not args.trace and key in rec["raw_s"] else ""
        if key == "solve_s_p50" and not args.trace:
            note += f"  (median of per-instance medians; {rec['samples']} samples)"
        print(f"  {key:32s} {metrics[key]:>14.6g} {units[key]}{note}")
    for f in rec["failures"]:
        print(f"  FAILED instance seed {f['instance_seed']}: {'; '.join(f['problems'])}")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
