"""Operator layer: normalization constants, assembly structure, consistency
against closed-form solutions, and the Green-function probe."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_solve

import fraclane
import oracles
from fraclane import (
    ConfigurationError,
    Domain,
    ExponentPair,
    assemble,
    ball_torsion_constant,
    build_grid,
    normalization_constant,
)
from fraclane.operator import _beta_table_2d, _gauss_legendre, _ktotal_2d, _second_moments
from fraclane.solvers import nonresonant_regime

# ---------------------------------------------------------------------------
# normalization constant


def test_normalization_closed_form_matches_frozen_values():
    assert normalization_constant(1, 0.5) == pytest.approx(
        oracles.FROZEN["C_1_0.5"], rel=1e-12)
    assert normalization_constant(2, 0.5) == pytest.approx(
        oracles.FROZEN["C_2_0.5"], rel=1e-12)


def test_normalization_quadrature_route_agrees_with_closed_form():
    for n in (1, 2):
        for s in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
            closed = normalization_constant(n, s)
            direct = oracles.normalization_constant_quadrature(n, s)
            assert direct == pytest.approx(closed, rel=1e-11), (n, s)


def test_normalization_matches_independent_reference():
    for n in (1, 2):
        for s in (0.25, 0.5, 0.75):
            assert normalization_constant(n, s) == pytest.approx(
                oracles.normalization_reference(n, s), rel=1e-12)


def test_normalization_local_limit_ratio():
    ratio_99 = normalization_constant(1, 0.99) / (1.0 - 0.99)
    ratio_999 = normalization_constant(1, 0.999) / (1.0 - 0.999)
    assert ratio_99 == pytest.approx(oracles.FROZEN["C_ratio_0.99"], rel=1e-9)
    assert ratio_999 == pytest.approx(oracles.FROZEN["C_ratio_0.999"], rel=1e-9)
    # the ratio approaches 2 from below as the order approaches 1
    assert abs(ratio_999 - 2.0) < abs(ratio_99 - 2.0) < 0.04


def test_order_outside_unit_interval_rejected():
    for bad in (0.0, 1.0, -0.3, 1.2):
        with pytest.raises(ConfigurationError):
            normalization_constant(1, bad)
    with pytest.raises(ConfigurationError):
        normalization_constant(3, 0.5)


def test_ball_torsion_constant_dual_route():
    assert ball_torsion_constant(1, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert ball_torsion_constant(2, 0.5) == pytest.approx(np.pi / 2, rel=1e-12)
    for n in (1, 2):
        for s in (0.3, 0.5, 0.7):
            frozen = oracles.FROZEN[f"kappa_{n}_{s}"]
            assert ball_torsion_constant(n, s) == pytest.approx(frozen, rel=1e-12)
            # independent quadrature route (no Gamma closed form involved)
            assert ball_torsion_constant(n, s) == pytest.approx(
                oracles.torsion_constant_by_quadrature(n, s), rel=1e-8)


# ---------------------------------------------------------------------------
# assembly structure


def _structure_ok(op):
    m = op.matrix
    assert np.array_equal(m, m.T), "matrix must be exactly symmetric"
    assert np.all(np.diag(m) > 0)
    off = m - np.diag(np.diag(m))
    assert np.all(off <= 0)
    assert np.all(m.sum(axis=1) > 0)
    assert np.max(np.abs(op.apply(np.zeros(op.n_nodes)))) == 0.0


@pytest.mark.parametrize("correction", [False, True])
def test_interval_assembly_structure(correction):
    grid = build_grid(Domain.interval(-1.0, 1.0), 32)
    for s in (0.3, 0.5, 0.7, 0.9):
        _structure_ok(assemble(grid, s, singular_correction=correction))


@pytest.mark.parametrize("correction", [False, True])
def test_planar_assembly_structure(correction):
    for dom in (Domain.disk(1.0), Domain.rectangle(2.0, 1.0)):
        grid = build_grid(dom, 16)
        _structure_ok(assemble(grid, 0.5, singular_correction=correction))


def test_anisotropic_rectangle_assembly():
    # different cell sizes per axis must still give a symmetric M-matrix
    grid = build_grid(Domain.rectangle(3.0, 1.0), 12)
    assert grid.h[0] != grid.h[1]
    _structure_ok(assemble(grid, 0.6))


@pytest.mark.parametrize("aspect", [1.0, 3.3, 20.0])
@pytest.mark.parametrize("s", [0.01, 0.25, 0.5, 0.75, 0.99])
def test_central_cell_mass_matches_quadrature(s, aspect):
    # both orientations of the cell, at a typical grid spacing
    for h1, h2 in ((0.05, 0.05 * aspect), (0.05 * aspect, 0.05)):
        closed = _ktotal_2d(h1, h2, s)
        assert closed == pytest.approx(oracles.ktotal_2d_by_quad(h1, h2, s), rel=1e-12)
        assert closed == pytest.approx(oracles.ktotal_2d_by_gauss(h1, h2, s), rel=1e-14)


@pytest.mark.parametrize("aspect", [1.0, 3.3, 20.0])
@pytest.mark.parametrize("s", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_central_cell_second_moments_match_quadrature(s, aspect):
    # the integrand is singular at the cell center; a tensor rule over the
    # cell missed up to 93% of the moment as s -> 1
    for h1, h2 in ((0.05, 0.05 * aspect), (0.05 * aspect, 0.05)):
        got = _second_moments(2, (h1, h2), s)
        want = oracles.second_moments_by_quad(h1, h2, s)
        assert got == pytest.approx(want, rel=1e-12)


_CELL_RULE_XFAIL = pytest.mark.xfail(
    strict=True, reason="the 12/6/4-point cell rule ignores the cell's aspect ratio "
                        "(relative errors about 1e-2 at 5:1 and 0.5 at 20:1)")


@pytest.mark.parametrize("aspect", [1.0, pytest.param(5.0, marks=_CELL_RULE_XFAIL),
                                    pytest.param(20.0, marks=_CELL_RULE_XFAIL)])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.9])
def test_planar_cell_masses_match_adaptive_quadrature(s, aspect):
    # every offset cell of Chebyshev index <= 3, in both orientations of the cell
    for h1, h2 in ((0.05 * aspect, 0.05), (0.05, 0.05 * aspect)):
        table = _beta_table_2d(3, h1, h2, s)
        for k1, k2 in np.ndindex(4, 4):
            if (k1, k2) != (0, 0):
                want = oracles.cell_mass_by_dblquad(k1, k2, h1, h2, s)
                assert table[k1, k2] == pytest.approx(want, rel=2e-9), (h1, h2, k1, k2)


def test_gauss_legendre_rules_are_computed_once_and_shared_read_only(monkeypatch):
    for m in (4, 6, 12, 48):
        nodes, weights = _gauss_legendre(m)
        assert all(np.array_equal(a, b) for a, b in zip((nodes, weights), leggauss(m)))
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
    grid = build_grid(Domain.disk(1.0), 12)
    table = assemble(grid, 0.5, singular_correction=True).table
    monkeypatch.setattr(fraclane.operator, "leggauss", None)  # no rule is computed again
    assert np.array_equal(assemble(grid, 0.5, singular_correction=True).table, table)


def test_import_and_planar_assembly_load_no_adaptive_quadrature():
    # a fresh interpreter: this one has scipy.integrate loaded by the oracles
    src = Path(fraclane.__file__).resolve().parents[1]
    code = ("import sys, fraclane, fraclane.cli\n"
            "fraclane.assemble(fraclane.build_grid(fraclane.Domain.disk(1.0), 8), 0.5)\n"
            "print('scipy.integrate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


_POOL_COUNTS = """
import ctypes, json, os
from pathlib import Path
import numpy, scipy.linalg

def pool(package, pattern, symbol):
    # the thread count of the package's bundled OpenBLAS, if it is loaded
    for path in (Path(package.__file__).parent.parent / (package.__name__ + ".libs")).glob(pattern):
        try:
            return getattr(ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD), symbol)()
        except (OSError, AttributeError):
            pass
    return None

def pools():
    return [pool(numpy, "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
            pool(scipy, "libscipy_openblas-*.so", "scipy_openblas_get_num_threads")]
"""

_POOLS = _POOL_COUNTS + """
before = pools()
import fraclane
print(json.dumps([before, pools()]))
"""


def _run_python(code: str, threads: str) -> str:
    """stdout of `code` in a fresh interpreter on src/ at `threads` OpenBLAS threads."""
    src = Path(fraclane.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="wheel OpenBLAS layout is Linux's")
def test_import_leaves_both_blas_pools_alone():
    before, after = json.loads(_run_python(_POOLS, "2"))
    if None in before:
        pytest.skip("NumPy's or SciPy's BLAS is not the bundled scipy-openblas library")
    if before != [2, 2]:
        pytest.skip(f"OpenBLAS caps the pools at the CPU count: {before}")
    assert after == [2, 2]


_STACKED_PRODUCTS = _POOL_COUNTS + """
import hashlib
import numpy as np
from fraclane import Domain, assemble, build_grid

digests = []
for domain, resolution in ((Domain.interval(-1.0, 1.0), 256), (Domain.disk(1.0), 40)):
    op = assemble(build_grid(domain, resolution), 0.5)
    stack = np.random.default_rng(5).standard_normal((19, op.n_nodes))
    singles = np.stack([op.apply(u) for u in stack])
    digests.append([op.n_nodes] + [hashlib.sha256(products.tobytes()).hexdigest()
                                   for products in (op.apply(stack), singles)])
print(json.dumps([pools()[0], digests]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="wheel OpenBLAS layout is Linux's")
def test_stacked_products_are_bitwise_the_same_at_one_and_two_blas_threads():
    # NumPy's pool follows OPENBLAS_NUM_THREADS, and a record that repeats
    # across thread counts needs each row of a mountain-pass sweep's stack
    # (19 rows) to come out with the same bits, as each single vector's does
    one, two = (json.loads(_run_python(_STACKED_PRODUCTS, threads)) for threads in "12")
    if two[0] in (None, 1):
        pytest.skip(f"NumPy's pool does not run 2 threads here: {two[0]}")
    assert [n for n, _, _ in two[1]] == [256, 1264]
    assert one[1] == two[1]
    assert all(stacked == singles for _, stacked, singles in two[1])


@pytest.mark.parametrize("domain, resolution", [
    (Domain.interval(-1.0, 1.0), 256),
    (Domain.interval(-1.0, 1.0), 512),
    (Domain.rectangle(2.0, 1.0), 32),
    (Domain.disk(1.0), 40),
    (Domain.disk(1.0), 64),
    (Domain.disk(0.7, center=(0.3, -0.2)), 24),
])
def test_assembly_matches_the_offset_array_oracle_bitwise(domain, resolution):
    grid = build_grid(domain, resolution)
    for s in (0.25, 0.5, 0.9):
        for correction in (False, True):
            ref = oracles.assembled_matrix(grid, s, singular_correction=correction)
            got = assemble(grid, s, singular_correction=correction).matrix
            assert np.array_equal(got, ref), (s, correction)
            assert np.array_equal(np.signbit(got), np.signbit(ref)), (s, correction)


def test_assembly_keeps_an_exact_order_and_builds_from_its_float():
    """The regime is read from op.s, so a rational order stays exact there;
    the kernel is the one of the order's float."""
    grid = build_grid(Domain.disk(1.0), 12)
    op = assemble(grid, Fraction(1, 3))
    assert op.s == Fraction(1, 3) and isinstance(op.s, Fraction)
    assert op.matrix.tobytes() == assemble(grid, 1 / 3).matrix.tobytes()
    # on the critical curve at n = 2, s = 1/3; the float of 1/3 is below 1/3, so above the curve
    assert nonresonant_regime(ExponentPair(2, 2), op.n, op.s) == "critical"
    assert nonresonant_regime(ExponentPair(2, 2), 2, assemble(grid, 1 / 3).s) == "supercritical"


def test_assembly_reads_a_text_order_and_rejects_a_non_number():
    """`assemble` reads s as `ExponentPair.regime` does: text is parsed, a
    float is kept as the dyadic rational it holds, and anything else is a
    configuration error at every entry point that takes an order."""
    grid = build_grid(Domain.disk(1.0), 12)
    op = assemble(grid, "1/3")
    assert op.s == Fraction(1, 3) and isinstance(op.s, Fraction)
    assert op.matrix.tobytes() == assemble(grid, Fraction(1, 3)).matrix.tobytes()
    half = assemble(grid, 0.5).s
    assert half == Fraction(1, 2) and isinstance(half, Fraction)
    for bad in ("x", True):
        for build in (lambda s: assemble(grid, s), lambda s: normalization_constant(2, s),
                      lambda s: ball_torsion_constant(2, s)):
            with pytest.raises(ConfigurationError, match=re.escape(f"s must be a number, got {bad!r}")):
                build(bad)


@pytest.mark.parametrize("domain, resolution, bound", [
    (Domain.disk(1.0), 40, 1.5),
    (Domain.interval(-1.0, 1.0), 512, 2.0),
])
def test_assembly_allocates_no_square_temporary(domain, resolution, bound):
    # the matrix itself is N^2 doubles; offset arrays, a gathered table or a
    # scaled copy of it would each add about as much again
    grid = build_grid(domain, resolution)
    tracemalloc.start()
    try:
        op = assemble(grid, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = op.n_nodes
    assert peak < bound * n * n * 8


def test_self_adjointness_in_weighted_inner_product(op64, grid64):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid64.n_nodes)
    v = rng.standard_normal(grid64.n_nodes)
    lhs = grid64.weights @ (op64.apply(u) * v)
    rhs = grid64.weights @ (u * op64.apply(v))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# consistency against the closed-form flat-torsion solution


def test_interval_operator_consistency_on_exact_solution():
    grid = build_grid(Domain.interval(-1.0, 1.0), 128)
    op = assemble(grid, 0.5)
    w = oracles.torsion_solution(grid.x, 1, 0.5)
    resid = op.apply(w) - 1.0
    bulk = grid.d >= 0.25
    assert np.max(np.abs(resid[bulk])) <= 0.01


def test_interval_torsion_solve_error_decreases():
    errors = {}
    for res in (64, 128, 256):
        grid = build_grid(Domain.interval(-1.0, 1.0), res)
        op = assemble(grid, 0.5)
        w = op.solve(np.ones(grid.n_nodes))
        exact = oracles.torsion_solution(grid.x, 1, 0.5)
        errors[res] = np.max(np.abs(w - exact)) / np.max(exact)
    assert errors[64] > errors[128] > errors[256]
    assert errors[256] <= 0.023


def test_interval_torsion_other_orders():
    grid = build_grid(Domain.interval(-1.0, 1.0), 256)
    for s in (0.3, 0.7):
        op = assemble(grid, s)
        w = op.solve(np.ones(grid.n_nodes))
        exact = oracles.torsion_solution(grid.x, 1, s)
        rel = np.max(np.abs(w - exact)) / np.max(exact)
        assert rel <= 0.05, (s, rel)


def test_disk_torsion_solve_converges():
    l2s, bulks = {}, {}
    for res in (16, 32, 64):
        grid = build_grid(Domain.disk(1.0), res)
        op = assemble(grid, 0.5)
        w = op.solve(np.ones(grid.n_nodes))
        exact = oracles.torsion_solution(grid.x, 2, 0.5)
        l2s[res] = np.sqrt(grid.integrate((w - exact) ** 2) / grid.integrate(exact ** 2))
        bulk = grid.d > 0.25
        bulks[res] = np.max(np.abs((w - exact)[bulk])) / np.max(exact)
    assert l2s[16] > l2s[32] > l2s[64]
    assert l2s[64] <= 0.04
    assert bulks[16] > bulks[32] > bulks[64]
    assert bulks[64] <= 0.02


# ---------------------------------------------------------------------------
# Green-function probe (half Laplacian on the interval has a closed form)


def _green_probe_error(res: int) -> float:
    grid = build_grid(Domain.interval(-1.0, 1.0), res)
    op = assemble(grid, 0.5)
    h = grid.h[0]
    worst = 0.0
    for y in (-0.55, 0.0, 0.35):
        j = int(np.argmin(np.abs(grid.x[:, 0] - y)))
        yj = grid.x[j, 0]
        rhs = np.zeros(grid.n_nodes)
        rhs[j] = 1.0 / h
        col = op.solve(rhs)
        exact = oracles.green_half_interval(grid.x[:, 0], yj)
        mask = (np.abs(grid.x[:, 0] - yj) >= 0.1) & (grid.d >= 0.1)
        rel = np.max(np.abs(col[mask] - exact[mask]) / exact[mask])
        worst = max(worst, rel)
    return worst


def test_green_function_probe():
    e128 = _green_probe_error(128)
    e256 = _green_probe_error(256)
    assert e128 <= 0.025
    assert e256 <= 0.013
    assert e256 < e128


# ---------------------------------------------------------------------------
# linear solve, positivity, dumps


def test_solve_residual_is_tiny(op128, grid128):
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 1.0, grid128.n_nodes)
    w = op128.solve(f)
    assert np.max(np.abs(op128.apply(w) - f)) <= 1e-10 * op128.scale


@pytest.mark.parametrize("domain, resolution", [
    (Domain.interval(-1.0, 1.0), 256),
    (Domain.disk(1.0), 40),
])
def test_solve_equals_cho_solve_bitwise(domain, resolution):
    op = assemble(build_grid(domain, resolution), 0.5)
    f = np.random.default_rng(7).uniform(-1.0, 1.0, op.n_nodes)
    ref = cho_solve(op.factor(), f, check_finite=False)
    assert op.solve(f).tobytes() == ref.tobytes()


def test_nonnegative_data_gives_positive_solution(op64, grid64):
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = rng.uniform(0.0, 1.0, grid64.n_nodes)
        f[rng.integers(0, grid64.n_nodes, 10)] = 0.0
        assert np.all(op64.solve(f) > 0)
    point = np.zeros(grid64.n_nodes)
    point[5] = 1.0
    assert np.all(op64.solve(point) > 0)  # nonlocal spreading


def test_singular_correction_improves_local_limit():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    x = grid.x[:, 0]
    bump = np.maximum(1.0 - (2.0 * x) ** 2, 0.0) ** 3
    lap = oracles.second_difference(bump, grid.h[0])
    errs = {}
    for corrected in (False, True):
        op = assemble(grid, 0.9, singular_correction=corrected)
        errs[corrected] = np.linalg.norm(op.apply(bump) - lap) / np.linalg.norm(lap)
    assert errs[True] < errs[False]


def test_planar_singular_correction_matches_the_classical_limit():
    # the 2D counterpart of acceptance criterion 3: near s = 1 the corrected
    # operator on a C^2 bump is close to the 5-point second difference
    grid = build_grid(Domain.rectangle(2.0, 2.0), 64)
    bump = np.maximum(1.0 - 4.0 * np.sum(grid.x ** 2, axis=1), 0.0) ** 3
    lap = oracles.second_difference_2d(bump, grid)
    op = assemble(grid, 0.99, singular_correction=True)
    assert np.linalg.norm(op.apply(bump) - lap) / np.linalg.norm(lap) <= 0.05


@pytest.mark.parametrize("domain, resolution", [
    (Domain.interval(-1.0, 1.0), 64),
    (Domain.disk(1.0), 12),
])
def test_apply_on_a_stack_equals_the_row_products_bitwise(domain, resolution):
    op = assemble(build_grid(domain, resolution), 0.5)
    stack = np.random.default_rng(5).normal(size=(7, op.n_nodes))
    rows = np.stack([op.apply(u) for u in stack])
    assert op.apply(stack).tobytes() == rows.tobytes()
    assert op.apply(stack[2:5]).tobytes() == rows[2:5].tobytes()  # a view, as in a path
