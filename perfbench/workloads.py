"""The benchmark's workloads: the CLI call each one makes, and the check its
outputs must pass.

Every workload drives the public CLI (`fraclane.cli.main`) with fixed
inputs.  The seed is passed through as `--seed`; it changes only `random`
starts, so the `bump`-started solution that is compared with the stored
reference is the same for every seed.  The `tiny` size runs the same code
paths in about a second and is used for the warm-up and the self-test.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fraclane.energy import ExponentPair

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SOLUTION_TOL = 1e-10      # sup-norm gap to the reference solution (ROADMAP rule)
RESIDUAL_TOL = 1e-8       # both equation residuals, as the CLI accepts them
UNIQUENESS_TOL = 1e-8     # gap between the bump and random starts
RELATIVE_TOL = 1e-10      # sweep energy_value, sup_u, sup_v against the reference

SWEEP_S = Fraction(1, 4)
SWEEP_PAIRS = [("1/2", "1/2"), ("1/4", "2"), ("2", "2"), ("3", "3"), ("4", "4"), ("2", "1/2")]


def verdict_kind(verdict) -> str:
    """The verdict's leading label: 'existence', 'nonexistence-consistent', ..."""
    return (verdict or "").split(":", 1)[0]


# ---------------------------------------------------------------------------
# solve workloads: one `fraclane solve`, checked against a reference solution


def _read_solution(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_solve(outdir: Path, rc: int, reference: np.ndarray, uniqueness: bool) -> list:
    """Failures of one `solve` case; an empty list means the case passed."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    record = json.loads((outdir / "record.json").read_text())
    errors = []
    if verdict_kind(record["verdict"]) != "existence":
        errors.append(f"verdict {record['verdict']!r} is not an existence verdict")
    for key in ("residual_u", "residual_v"):
        if not record[key] <= RESIDUAL_TOL:
            errors.append(f"{key} = {record[key]} > {RESIDUAL_TOL}")
    for key in ("min_u", "min_v"):
        if not record[key] > 0.0:
            errors.append(f"{key} = {record[key]} is not positive")
    if uniqueness:
        for key in ("uniqueness_gap_u", "uniqueness_gap_v"):
            if record[key] is None or not record[key] <= UNIQUENESS_TOL:
                errors.append(f"{key} = {record[key]} > {UNIQUENESS_TOL}")
    solution = _read_solution(outdir / "solution.csv")
    if solution.shape != reference.shape:
        errors.append(f"solution.csv has shape {solution.shape}, reference {reference.shape}")
    else:
        gap = float(np.max(np.abs(solution - reference)))
        if not gap <= SOLUTION_TOL:
            errors.append(f"solution.csv differs from the reference by {gap:.3e} > {SOLUTION_TOL}")
    return errors


# ---------------------------------------------------------------------------
# phase sweep: one `fraclane phase-diagram`, checked point by point


def sweep_records(outdir: Path) -> list:
    return json.loads((outdir / "phase_diagram.json").read_text())


def sweep_reference(outdir: Path) -> list:
    """The reference a sweep's output defines: per point, its verdict kind
    and, where it converged, the values the check compares."""
    ref = []
    for (p, q), record in zip(SWEEP_PAIRS, sweep_records(outdir)):
        point = {"p": p, "q": q, "verdict": verdict_kind(record["verdict"])}
        if record["converged"]:
            point.update({key: record[key] for key in ("energy_value", "sup_u", "sup_v")})
        ref.append(point)
    return ref


def check_sweep(outdir: Path, rc: int, reference: list) -> list:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    records = sweep_records(outdir)
    if len(records) != len(reference):
        return [f"{len(records)} sweep records, expected {len(reference)}"]
    errors = []
    for point, record in zip(reference, records):
        label = f"p={point['p']} q={point['q']}"
        regime = ExponentPair(Fraction(point["p"]), Fraction(point["q"])).regime(1, SWEEP_S)
        if record["regime"] != regime:
            errors.append(f"{label}: regime {record['regime']!r}, exact regime {regime!r}")
        if verdict_kind(record["verdict"]) != point["verdict"]:
            errors.append(f"{label}: verdict {verdict_kind(record['verdict'])!r}, "
                          f"expected {point['verdict']!r}")
        for key in ("energy_value", "sup_u", "sup_v"):
            if key not in point:
                continue
            got, want = record[key], point[key]
            if got is None or not abs(got - want) <= RELATIVE_TOL * abs(want):
                errors.append(f"{label}: {key} = {got}, reference {want}")
    return errors


# ---------------------------------------------------------------------------
# the workloads


def _fmt(value: str) -> str:
    """CLI spelling of a rational: the CLI parses floats, and every value
    here is a dyadic rational, so the float is exact."""
    return repr(float(Fraction(value)))


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict                      # size -> resolution
    base_argv: Callable              # resolution -> argv without seed/outdir
    check: Callable                  # (outdir, rc, reference) -> failures
    reference_suffix: str

    def argv(self, size: str, seed: int, outdir: Path) -> list:
        return self.base_argv(self.sizes[size]) + ["--seed", str(seed), "--outdir", str(outdir)]

    def reference_path(self, size: str) -> Path:
        return REFERENCE_DIR / f"{self.name}.{size}{self.reference_suffix}"

    def load_reference(self, size: str):
        path = self.reference_path(size)
        if self.reference_suffix == ".csv":
            return _read_solution(path)
        return json.loads(path.read_text())

    def reference_of(self, outdir: Path):
        """The reference that a case's output in `outdir` defines."""
        if self.reference_suffix == ".csv":
            return _read_solution(outdir / "solution.csv")
        return sweep_reference(outdir)

    def save_reference(self, size: str, outdir: Path) -> Path:
        """Store the output of a passing case as the reference."""
        path = self.reference_path(size)
        path.parent.mkdir(parents=True, exist_ok=True)
        if self.reference_suffix == ".csv":
            shutil.copyfile(outdir / "solution.csv", path)
        else:
            path.write_text(json.dumps(sweep_reference(outdir), indent=2) + "\n")
        return path


# Each workload stresses different layers, so that an optimisation of one
# layer has a workload that exercises it and one that bypasses it:
#   sublinear-1d        the sublinear descent loop (energy, matvec, one
#                       Cholesky solve per step); barely any Newton, no path
#                       deformation, 2D analysis or 2D assembly.
#   mountain-pass-disk  path deformation, the 2Nx2N dense Newton Jacobian
#                       (memory), 2D assembly and the disk boundary fits;
#                       no sublinear descent.
#   phase-sweep-1d      many small-N solves where per-call overhead
#                       dominates, one assembly and factorization per point,
#                       every verdict including the failure paths, record I/O.
WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="sublinear-1d",
            sizes={"full": 512, "tiny": 32},
            base_argv=lambda res: [
                "solve", "--resolution", str(res), "--p", "0.5", "--q", "0.5", "--s", "0.5",
                "--init", "bump", "--second-init", "random"],
            check=lambda outdir, rc, ref: check_solve(outdir, rc, ref, uniqueness=True),
            reference_suffix=".csv",
        ),
        Workload(
            name="mountain-pass-disk",
            sizes={"full": 40, "tiny": 12},
            base_argv=lambda res: [
                "solve", "--domain-kind", "disk", "--radius", "1", "--resolution", str(res),
                "--p", "2", "--q", "2", "--s", "0.5"],
            check=lambda outdir, rc, ref: check_solve(outdir, rc, ref, uniqueness=False),
            reference_suffix=".csv",
        ),
        Workload(
            name="phase-sweep-1d",
            sizes={"full": 256, "tiny": 32},
            base_argv=lambda res: [
                "phase-diagram", "--resolution", str(res), "--s", _fmt(str(SWEEP_S)),
                "--jobs", "1",
                "--pairs", ",".join(f"{_fmt(p)}:{_fmt(q)}" for p, q in SWEEP_PAIRS)],
            check=check_sweep,
            reference_suffix=".json",
        ),
    ]
}
