"""Acceptance suite: eleven end-to-end checks, one per numbered criterion.

Each test computes its quantities, registers a one-line PASS/FAIL summary via
the conftest hook (printed in the terminal summary section), and then asserts.
Tolerances are the stated desk-scale targets; every derived number was frozen
against an independent oracle route in tests/oracles.py before these tests
were written.
"""

import json
import time
from fractions import Fraction

import numpy as np

import oracles
from conftest import record_criterion
from fraclane import (
    Domain,
    ExponentPair,
    SolverConfig,
    assemble,
    build_grid,
    normalization_constant,
    solve_system,
)
from fraclane.analysis import (
    boundary_exponent_fit,
    maximum_principle_audit,
    rellich_residual,
)
from fraclane.cli import _run_solve, _validated
from fraclane.energy import energy, energy_gradient


def test_criterion_01_normalization_constant_both_routes():
    t0 = time.perf_counter()
    targets = {(1, 0.5): 1.0 / np.pi, (2, 0.5): 1.0 / (2.0 * np.pi)}
    worst = 0.0
    for (n, s), reference in targets.items():
        for route in (normalization_constant, oracles.normalization_constant_quadrature):
            worst = max(worst, abs(route(n, s) - reference) / reference)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    record_criterion(1, ok, f"closed form + quadrature vs 1/pi, 1/(2pi): "
                            f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.3f}s < 1s")
    assert ok


def test_criterion_02_interval_torsion_error_and_refinement():
    t0 = time.perf_counter()
    domain = Domain.interval(-1.0, 1.0)
    errors = {}
    for resolution in (128, 256, 512):
        grid = build_grid(domain, resolution)
        op = assemble(grid, 0.5)
        w = op.solve(np.ones(grid.n_nodes))
        exact = oracles.torsion_solution(grid.x[:, 0], 1, 0.5)
        errors[resolution] = float(np.max(np.abs(w - exact)) / np.max(exact))
    elapsed = time.perf_counter() - t0
    ok = (errors[512] <= 0.02
          and errors[128] > errors[256] > errors[512]
          and elapsed < 10.0)
    record_criterion(2, ok, "torsion sup error / sup exact at N=128/256/512: "
                            f"{errors[128]:.4f}/{errors[256]:.4f}/{errors[512]:.4f} "
                            f"(tol 0.02 at 512, monotone), {elapsed:.2f}s < 10s")
    assert ok


def test_criterion_03_near_classical_limit_matches_second_differences():
    grid = build_grid(Domain.interval(-1.0, 1.0), 256)
    x = grid.x[:, 0]
    bump = np.maximum(1.0 - (2.0 * x) ** 2, 0.0) ** 3
    op = assemble(grid, 0.99, singular_correction=True)
    reference = oracles.second_difference(bump, grid.h[0])
    rel = float(np.linalg.norm(op.apply(bump) - reference) / np.linalg.norm(reference))
    ok = rel <= 0.05
    record_criterion(3, ok, f"s=0.99 operator vs classical second difference on a "
                            f"C^2 bump: rel L2 err {rel:.4f} (tol 0.05)")
    assert ok


def test_criterion_04_maximum_principle_audit(op128, op64):
    audit = maximum_principle_audit(op128, trials=100, seed=0)
    inverse = maximum_principle_audit(op64, trials=10, seed=1)
    ok = (audit.passes == audit.trials == 100
          and not audit.witnesses
          and inverse.inverse_nonnegative is True)
    record_criterion(4, ok, f"{audit.passes}/100 random nonnegative loads gave strictly "
                            f"positive solutions at N=128; inverse entrywise "
                            f"nonnegative at N=64: {inverse.inverse_nonnegative}")
    assert ok


def test_criterion_05_sublinear_existence_and_uniqueness():
    t0 = time.perf_counter()
    grid = build_grid(Domain.interval(-1.0, 1.0), 256)
    op = assemble(grid, 0.5)
    exps = ExponentPair(0.5, 0.5)
    pair = solve_system(op, exps, SolverConfig(init="bump"))
    other = solve_system(op, exps, SolverConfig(init="random", seed=7))
    u_ref, _ = oracles.fixed_point_solution(op, 0.5, 0.5)
    init_gap = float(np.max(np.abs(pair.u - other.u)) / np.max(np.abs(pair.u)))
    oracle_gap = float(np.max(np.abs(pair.u - u_ref)) / np.max(np.abs(u_ref)))
    elapsed = time.perf_counter() - t0
    ok = (max(pair.residual_u, pair.residual_v) <= 1e-6
          and pair.energy.value < 0
          and min(pair.min_u, pair.min_v) > 0
          and init_gap <= 1e-6
          and oracle_gap <= 1e-6
          and elapsed < 60.0)
    record_criterion(5, ok, f"p=q=0.5, N=256: residuals ({pair.residual_u:.1e},"
                            f"{pair.residual_v:.1e}) <= 1e-6, energy {pair.energy.value:.4f} < 0, "
                            f"min {min(pair.min_u, pair.min_v):.2e} > 0, init gap {init_gap:.1e}, "
                            f"fixed-point oracle gap {oracle_gap:.1e} (tol 1e-6), "
                            f"{elapsed:.1f}s < 60s")
    assert ok


def test_criterion_06_superlinear_mountain_pass_existence():
    t0 = time.perf_counter()
    grid = build_grid(Domain.interval(-1.0, 1.0), 256)
    op = assemble(grid, 0.5)
    pair = solve_system(op, ExponentPair(3.0, 3.0), SolverConfig())
    scalar_ref = oracles.scalar_branch(op, 3.0)
    symmetry_gap = float(np.max(np.abs(pair.u - pair.v)) / np.max(np.abs(pair.u)))
    scalar_gap = float(np.max(np.abs(pair.u - scalar_ref)) / np.max(np.abs(scalar_ref)))
    elapsed = time.perf_counter() - t0
    ok = (pair.method == "mountain_pass"
          and max(pair.residual_u, pair.residual_v) <= 1e-6
          and pair.energy.value > 0
          and min(pair.min_u, pair.min_v) > 0
          and symmetry_gap <= 1e-4
          and scalar_gap <= 1e-4
          and elapsed < 300.0)
    record_criterion(6, ok, f"p=q=3, N=256 mountain pass: residuals ({pair.residual_u:.1e},"
                            f"{pair.residual_v:.1e}) <= 1e-6, energy {pair.energy.value:.4f} > 0, "
                            f"positive, u-v gap {symmetry_gap:.1e}, scalar-branch oracle gap "
                            f"{scalar_gap:.1e} (tol 1e-4), {elapsed:.1f}s < 5min")
    assert ok


def test_criterion_07_integral_identity_residual_shrinks(superlinear_pair_256, grid256):
    exps = ExponentPair(3.0, 3.0)
    coarse = rellich_residual(superlinear_pair_256, exps, grid256, 0.5)
    fine_grid = build_grid(Domain.interval(-1.0, 1.0), 1024)
    fine_op = assemble(fine_grid, 0.5)
    fine_pair = solve_system(fine_op, exps, SolverConfig())
    fine = rellich_residual(fine_pair, exps, fine_grid, 0.5)
    ratio = coarse.residual / fine.residual
    ok = (coarse.residual <= 0.10
          and ratio >= 1.5
          and coarse.cross_gap <= 0.01
          and fine.cross_gap <= 0.01)
    record_criterion(7, ok, f"boundary/interior identity residual {coarse.residual:.2%} at "
                            f"N=256 (tol 10%), {fine.residual:.2%} at N=1024 "
                            f"({ratio:.1f}x decrease, need >= 1.5x); cross-integral gap "
                            f"{max(coarse.cross_gap, fine.cross_gap):.1e} <= 1%")
    assert ok


def test_criterion_08_regime_classifier_exact_on_rational_sweep():
    examples_ok = (
        ExponentPair(2, 2).regime(3, 0.5) == "critical"
        and ExponentPair(3, 3).regime(1, 0.5) == "superlinear_subcritical"
        and ExponentPair(10, 10).regime(3, 0.5) == "supercritical"
        and ExponentPair(Fraction(1, 3), 3).regime(1, Fraction(1, 2)) == "resonant"
    )
    n, s = 3, Fraction(1, 2)
    curve_level = Fraction(n) - 2 * s  # (n - 2s), compared against n * lhs
    mismatches = 0
    for i in range(1, 21):
        for j in range(1, 21):
            p, q = Fraction(i, 4), Fraction(j, 4)
            exps = ExponentPair(p, q)
            lhs = Fraction(1, 1) / (p + 1) + Fraction(1, 1) / (q + 1)
            if p * q < 1:
                expected = "sublinear"
            elif p * q == 1:
                expected = "resonant"
            elif lhs * n > curve_level:
                expected = "superlinear_subcritical"
            elif lhs * n == curve_level:
                expected = "critical"
            else:
                expected = "supercritical"
            factor = exps.rhs_factor(n, s)
            side = lhs * n - curve_level
            sign_ok = (factor > 0) == (side > 0) and (factor == 0) == (side == 0)
            if exps.regime(n, s) != expected or not sign_ok:
                mismatches += 1
    ok = examples_ok and mismatches == 0
    record_criterion(8, ok, f"4/4 reference labels exact; 20x20 rational sweep at n=3, "
                            f"s=1/2: {mismatches} label/sign mismatches out of 400 "
                            f"(exact arithmetic, includes 7 points on the critical curve)")
    assert ok


def test_criterion_09_boundary_decay_exponent_tracks_order():
    grid = build_grid(Domain.interval(-1.0, 1.0), 512)
    fits = {}
    for s in (0.3, 0.5, 0.7):
        op = assemble(grid, s)
        low = solve_system(op, ExponentPair(0.5, 0.5), SolverConfig())
        high = solve_system(op, ExponentPair(3.0, 3.0), SolverConfig())
        for label, pair in (("min", low), ("mp", high)):
            for component, u in (("u", pair.u), ("v", pair.v)):
                fits[(s, label, component)] = boundary_exponent_fit(
                    np.maximum(u, 0.0), grid).aggregate
    deviations = {key: abs(alpha - key[0]) for key, alpha in fits.items()}
    worst_key = max(deviations, key=deviations.get)
    ok = all(dev <= 0.05 for dev in deviations.values())
    record_criterion(9, ok, "fitted boundary decay exponent within s +/- 0.05 for "
                            "s in {0.3, 0.5, 0.7}, both solution families at N=512; "
                            f"worst |alpha - s| = {deviations[worst_key]:.4f} at "
                            f"s={worst_key[0]} ({worst_key[1]})")
    assert ok


def test_criterion_10_smoothed_gradient_matches_finite_differences(op64, grid64):
    rng = np.random.default_rng(42)
    eps, delta = 1e-2, 1e-5
    worst = 0.0
    for p in (0.5, 1.0, 3.0):
        exps = ExponentPair(p, 2.0)
        for _ in range(20):
            u = rng.uniform(-0.5, 1.0, grid64.n_nodes)
            phi = rng.standard_normal(grid64.n_nodes)
            phi /= np.max(np.abs(phi))
            exact = float(energy_gradient(op64, u, exps, smoothing=eps) @ phi)
            central = (energy(op64, u + delta * phi, exps, smoothing=eps).value
                       - energy(op64, u - delta * phi, exps, smoothing=eps).value) / (2 * delta)
            worst = max(worst, abs(central - exact) / abs(exact))
    ok = worst <= 1e-4
    record_criterion(10, ok, f"smoothed-energy gradient vs central differences, 20 random "
                             f"directions for each p in {{0.5, 1, 3}}: worst rel err "
                             f"{worst:.1e} (tol 1e-4)")
    assert ok


def test_criterion_11_identical_config_reproduces_record_bitwise():
    digests = []
    for cfg_seed, method in (({"p": 0.5, "q": 0.5, "init": "random", "seed": 3},
                              "minimize_sublinear"),
                             ({"p": 3.0, "q": 3.0}, "mountain_pass")):
        base = {"resolution": 64, "s": 0.5, "outdir": "unused"}
        base.update(cfg_seed)
        runs = []
        for _ in range(2):
            record, _, _ = _run_solve(_validated(dict(base)))
            record.pop("wall_time_s")
            runs.append(json.dumps(record, sort_keys=True))
        digests.append(runs[0] == runs[1] and record["method"] == method)
    ok = all(digests)
    record_criterion(11, ok, "two in-process runs from one config: full result record "
                             f"bitwise identical (excluding wall time) for sublinear and "
                             f"mountain-pass problems: {digests}")
    assert ok
