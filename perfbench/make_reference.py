"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Each workload runs once at seed 0, at the tiny and at the full size.  Its
output becomes the reference only after it passes every part of the output
check that does not compare with a reference; a failing output leaves the
stored reference as it was.  Regenerate only in a change that means to
change the numbers.
"""

from __future__ import annotations

import shutil
import sys

from run import WORKLOAD_NAMES, import_program, pin_threads


def main() -> int:
    pin_threads()
    import_program()
    import bench
    import spans
    from workloads import WORKLOADS

    for size in ["tiny", "full"]:
        for name in WORKLOAD_NAMES:
            workload = WORKLOADS[name]
            outdir = bench.OUT_DIR / "reference" / f"{name}.{size}"
            shutil.rmtree(outdir, ignore_errors=True)
            case = bench.run_case(workload, size, 0, outdir, spans.Tracer(), 0, traced=False)
            if case.rc != 0:
                print(f"{name} ({size}): exit code {case.rc}", file=sys.stderr)
                return 1
            # compared with itself, the output passes the reference part of
            # the check, so only the other parts can fail
            errors = workload.check(outdir, case.rc, workload.reference_of(outdir))
            if errors:
                print(f"{name} ({size}) fails its check:\n  " + "\n  ".join(errors),
                      file=sys.stderr)
                return 1
            path = workload.save_reference(size, outdir)
            print(f"{name} ({size}): {case.wall_s:.2f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
