"""Pipeline benchmark for spellvec: six stages on seeded synthetic inputs.

    python3 perfbench/run.py --workload mimick --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tagger-both --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from its src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The full record of a run, environment
included, goes to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): the library's matrices are small, and
# extra threads only add scheduling noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from pipeline import Run
    from workloads import WORKLOADS
    from workloads import smoke as smoke_size

    w = WORKLOADS[name]
    if smoke:
        w = smoke_size(w)
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    started = time.perf_counter()
    run = Run(w, seed, seconds, trace, workdir, **({"min_blocks": 1, "trace_blocks": 2} if smoke else {}))
    try:
        metrics = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        "result": result,
        "checks": run.checks,
        "problems": run.problems,
        "slices": run.slice_summary(),
        "diagnostics": run.diagnostics,
        "missing_trace_targets": run.tracer.missing if run.tracer else [],
    }
    os.makedirs(RESULTS, exist_ok=True)
    tag = "smoke-" if smoke else ""
    with open(os.path.join(RESULTS, f"{tag}{name}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for problem in run.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size, traced and untraced, all checks on")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "spellvec")):
        print(f"error: no spellvec sources at {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_one(name, args.seed, 0.0, trace, smoke=True)
                print(f"smoke {name} trace={int(trace)}: attempted {result['attempted']} "
                      f"failed {result['failed']}", file=sys.stderr)
                ok = ok and result["correct"]
        print(json.dumps({"smoke": "passed" if ok else "failed"}))
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
