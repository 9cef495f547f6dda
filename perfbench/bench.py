"""One benchmark run: a closed loop of identical CLI cases on one workload,
timed, then checked, then summarised.

Imported by run.py only after the BLAS/OpenMP thread variables are pinned,
because NumPy reads them once, when it loads OpenBLAS.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import fraclane.cli
import fraclane.operator
import spans
from workloads import HERE, Workload

OUT_DIR = HERE / "_out"
MIN_CASES = 2          # a median needs more than one case, and a traced run
                       # needs an untraced case to measure its own overhead
SETUP_CASES = 21       # set-up cases a timed run takes the median of

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Case:
    index: int
    traced: bool
    outdir: Path
    rc: int | None
    wall_s: float
    errors: list = field(default_factory=list)


class _SetupDone(BaseException):
    """Raised out of a set-up case's first Cholesky factorization.  A
    BaseException, so that no `except Exception` in the program stops it."""


def _cache_size(name: int) -> int:
    """glibc sysconf cache size in bytes (0 where unknown); Python's
    os.sysconf does not know the cache names."""
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    return max(int(libc.sysconf(name)), 0)


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "l2_cache_bytes": _cache_size(191),   # _SC_LEVEL2_CACHE_SIZE
        "l3_cache_bytes": _cache_size(194),   # _SC_LEVEL3_CACHE_SIZE
        "seed": seed,
    }


def run_setup(workload: Workload, size: str, seed: int, outdir: Path) -> float:
    """Run the workload's CLI call up to the end of its first Cholesky
    factorization, and return the seconds spent in `build_grid`, `assemble`
    and that factorization."""
    factor = fraclane.operator.cho_factor

    def factor_then_stop(*args, **kwargs):
        factor(*args, **kwargs)
        raise _SetupDone

    tracer = spans.Tracer()
    fraclane.operator.cho_factor = factor_then_stop
    try:
        with spans.installed(tracer, spans.SETUP_TARGETS), \
                contextlib.redirect_stdout(io.StringIO()):
            fraclane.cli.main(workload.argv(size, seed, outdir))
    except _SetupDone:
        return float(np.sum(tracer.columns()["dur"]))
    finally:
        fraclane.operator.cho_factor = factor
    raise RuntimeError(f"{workload.name}: the CLI call made no Cholesky factorization")


def run_case(workload: Workload, size: str, seed: int, outdir: Path,
             tracer: spans.Tracer, index: int, traced: bool) -> Case:
    """Run one CLI call, with every layer wrapped in spans if `traced`, and
    time it."""
    tracer.case_id = index
    targets = spans.LAYER_TARGETS if traced else []
    argv = workload.argv(size, seed, outdir)
    with spans.installed(tracer, targets), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        idx = tracer.enter("cli.main")
        try:
            rc = fraclane.cli.main(argv)
        except Exception:  # a crash fails this case; the loop and the report go on
            traceback.print_exc(file=sys.stderr)
            rc = None
        finally:
            tracer.exit(idx)
        wall = time.perf_counter() - t0
    if outdir.is_dir():
        tracer.add("cli.bytes_written",
                   sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file()))
    return Case(index, traced, outdir, rc, wall)


def run(workload: Workload, size: str, seed: int, seconds: float, traced: bool,
        env: dict) -> dict:
    """Run the closed loop for `seconds`, check every case, and return the
    report: environment, cases, metrics and the pass/fail counts."""
    out = OUT_DIR / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reference = workload.load_reference(size)
    tracer = spans.Tracer()
    # warm-up: imports, BLAS threads and allocator pools, at the tiny size
    run_case(workload, "tiny", seed, out / "warmup", tracer, -1, traced=False)
    setups = [] if traced else [run_setup(workload, size, seed, out / "setup")
                                for _ in range(SETUP_CASES)]

    cases = []
    t_start = time.perf_counter()
    # start another case while it would end less than half a case past `seconds`
    while (len(cases) < MIN_CASES
           or time.perf_counter() - t_start + 0.5 * cases[-1].wall_s < seconds):
        i = len(cases)
        # a traced run alternates untraced and traced cases
        cases.append(run_case(workload, size, seed, out / f"case-{i}", tracer, i,
                              traced=traced and i % 2 == 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for case in cases:
        if case.rc is None:
            case.errors = ["the CLI raised an exception"]
        else:
            case.errors = workload.check(case.outdir, case.rc, reference)

    failed = sum(1 for case in cases if case.errors)
    report = {
        "workload": workload.name, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(traced), "environment": env,
        "setup_s": setups,
        "cases": [{"index": c.index, "traced": c.traced, "rc": c.rc, "wall_s": c.wall_s,
                   "errors": c.errors} for c in cases],
        "attempted": len(cases), "failed": failed,
    }
    if traced:
        report["metrics"], report["count_mismatch"] = _layer_metrics(tracer, cases)
        tracer.save(OUT_DIR / f"{workload.name}.spans.npz")
    else:
        report["metrics"] = {
            "wall_s": statistics.median(c.wall_s for c in cases),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    return report


def _layer_metrics(tracer, cases) -> tuple:
    cols = tracer.columns()
    traced = [c for c in cases if c.traced]
    plain = [c for c in cases if not c.traced]
    per_case = [spans.case_layer_metrics(tracer, cols, c.index) for c in traced]
    metrics = {name: statistics.median(v[name] for v in per_case)
               for name in spans.LAYER_METRICS}
    metrics["trace.overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                   - statistics.median(c.wall_s for c in plain))
    # counts must repeat exactly; name any that differ between traced cases
    mismatch = [name for name, unit in spans.LAYER_METRICS.items()
                if unit == "count" and len({v[name] for v in per_case}) > 1]
    return metrics, mismatch


def units(traced: bool) -> dict:
    if traced:
        return {**spans.LAYER_METRICS, "trace.overhead_s": "s"}
    return END_TO_END


def print_report(report: dict) -> None:
    """Human-readable lines; run.py prints the one-line JSON result after them."""
    env = report["environment"]
    print(f"perfbench {report['workload']} size={report['size']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    walls = [c["wall_s"] for c in report["cases"]]
    print(f"cases: {len(walls)}, wall s: " + " ".join(f"{w:.4f}" for w in walls))
    if report["setup_s"]:
        print(f"set-up cases: {len(report['setup_s'])}, set-up s: "
              + " ".join(f"{t:.4f}" for t in report["setup_s"]))
    for case in report["cases"]:
        for error in case["errors"]:
            print(f"  case {case['index']} FAILED: {error}")
    unit_of = units(bool(report["trace"]))
    for name, value in report["metrics"].items():
        kind = "count" if unit_of[name] == "count" else unit_of[name]
        print(f"  {name:42s} {value:>16.6g} {kind}")
    if report["trace"]:
        if report["count_mismatch"]:
            print("  counts differ between traced cases: " + ", ".join(report["count_mismatch"]))
    else:
        # the high percentile: with a handful of cases no percentile has ten
        # samples beyond it, so report the slowest case and the sample count
        print(f"  {'wall_s_max':42s} {max(walls):>16.6g} s")
        print(f"  {'wall_s samples':42s} {len(walls):>16d} count")
    print(f"  {'failed_frac':42s} {report['failed'] / report['attempted']:>16.6g} ratio "
          f"({report['failed']} of {report['attempted']} cases failed the output check)")


def result_line(report: dict) -> dict:
    unit_of = units(bool(report["trace"]))
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in report["metrics"].items()},
    }
