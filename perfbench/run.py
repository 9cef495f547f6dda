"""fraclane benchmark.

    python3 perfbench/run.py --workload sublinear-1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # all workloads, each in its own process

Runs one workload as a closed loop of identical `fraclane` CLI cases for
`--seconds` seconds, in one fresh process with the BLAS/OpenMP threads
pinned to the number of usable CPUs, then checks every case's output
against the reference in perfbench/reference/.  `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps each layer's public functions in
spans and reports the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from the checkout's own `src/`; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, listed here because importing workloads
# imports NumPy, which must wait until the thread variables are pinned
WORKLOAD_NAMES = ["sublinear-1d", "mountain-pass-disk", "phase-sweep-1d"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"],
                        help="'tiny' runs the same paths in about a second (self-test)")
    return parser.parse_args(argv)


def pin_threads() -> None:
    """Set every BLAS/OpenMP thread variable to the usable CPU count.  Must
    run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)


def import_program():
    """Import fraclane from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import fraclane
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fraclane from {src}: {exc}")
    if Path(fraclane.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: fraclane was imported from {fraclane.__file__}, not {src}")
    return fraclane


def run_one(args) -> int:
    pin_threads()
    import_program()
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if not workload.reference_path(args.size).is_file():
        sys.exit(f"perfbench: missing reference {workload.reference_path(args.size)}")
    env = bench.environment(args.seed)
    report = bench.run(workload, args.size, args.seed, args.seconds, bool(args.trace), env)
    bench.OUT_DIR.mkdir(exist_ok=True)
    (bench.OUT_DIR / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    bench.print_report(report)
    print(json.dumps(bench.result_line(report)), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
