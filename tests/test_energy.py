"""Energy layer: exponent regime arithmetic, smoothed functional, gradient."""

import re
from fractions import Fraction

import numpy as np
import pytest

from fraclane import (
    ConfigurationError,
    Domain,
    ExponentPair,
    assemble,
    build_grid,
    energy,
    energy_gradient,
    energy_value,
    euler_lagrange_residual,
    smoothed_density,
    smoothed_power,
)

# ---------------------------------------------------------------------------
# exponent pairs and regimes


def test_regime_labels_on_reference_cases():
    half = Fraction(1, 2)
    assert ExponentPair(1, 1).regime(1, half) == "resonant"
    assert ExponentPair(2, 2).regime(3, half) == "critical"
    assert ExponentPair(5, 5).regime(1, half) == "superlinear_subcritical"
    assert ExponentPair(half, half).regime(1, half) == "sublinear"
    assert ExponentPair(10, 10).regime(3, half) == "supercritical"


def test_regime_exact_rational_boundary_cases():
    half = Fraction(1, 2)
    # pq = 1 detected exactly for rationals and for exact float products
    assert ExponentPair(Fraction(1, 3), 3).regime(1, half) == "resonant"
    assert ExponentPair(0.5, 2.0).regime(1, half) == "resonant"
    # exactly on the critical curve: the factor is the exact Fraction zero
    crit = ExponentPair(2, 2)
    assert crit.rhs_factor(3, half) == 0
    assert isinstance(crit.rhs_factor(3, half), Fraction)
    assert crit.regime(3, half) == "critical"
    # a float is the dyadic rational it holds: this q is the float nearest
    # the critical q = 529/15 and lies just below it, where float arithmetic
    # reads "critical"
    assert ExponentPair(0.0625, 35.266666666666666).regime(1, 0.015625) \
        == "superlinear_subcritical"


def test_low_dimension_makes_every_superlinear_pair_subcritical():
    # n <= 2s: no critical curve, all pq > 1 pairs are subcritical
    assert ExponentPair(100, 100).regime(1, 0.5) == "superlinear_subcritical"
    assert ExponentPair(3, 3).regime(1, 0.7) == "superlinear_subcritical"


def test_rhs_factor_is_n_times_the_curve_gap():
    half = Fraction(1, 2)
    for p in (Fraction(1, 2), 1, 2, 3, 7):
        for q in (Fraction(1, 2), 1, 2, 3, 7):
            gap = 1 / Fraction(p + 1) + 1 / Fraction(q + 1) - Fraction(3 - 2 * half, 3)
            assert ExponentPair(p, q).rhs_factor(3, half) == 3 * gap


def test_rhs_factor_positive_at_or_below_2s():
    # n <= 2s: n - 2s <= 0, so the factor is positive and no pair is critical
    pair = ExponentPair(2, 2)
    for s in (Fraction(1, 2), Fraction(7, 10)):
        assert pair.rhs_factor(1, s) == Fraction(2, 3) + 2 * s - 1 > 0
        assert pair.regime(1, s) == "superlinear_subcritical"


def test_nonpositive_exponents_rejected():
    with pytest.raises(ConfigurationError):
        ExponentPair(0, 1)
    with pytest.raises(ConfigurationError):
        ExponentPair(2, -1)


def test_exponents_are_exact_rationals():
    pair = ExponentPair("1/3", 0.1)
    assert pair.p == Fraction(1, 3) and pair.pf == 1 / 3
    assert pair.q == Fraction(0.1) != Fraction(1, 10) and pair.qf == 0.1
    # the CLI's words: a boolean, which Fraction reads as 0 or 1, is not a number either
    for bad in (float("nan"), float("inf"), "1/0", "abc", None, "1e400", True):
        with pytest.raises(ConfigurationError, match=re.escape(f"p must be a number, got {bad!r}")):
            ExponentPair(bad, 2)


def test_bad_order_rejected_by_regime():
    with pytest.raises(ConfigurationError):
        ExponentPair(2, 2).regime(1, 1.5)


# ---------------------------------------------------------------------------
# smoothing primitives


def test_smoothed_density_properties():
    t = np.linspace(-2, 2, 41)
    for p in (0.5, 1.0, 3.0):
        for eps in (1e-2, 1e-6):
            rho = smoothed_density(t, eps, p)
            assert rho[20] == pytest.approx(0.0, abs=1e-15)  # t = 0
            assert np.all(rho >= -1e-15)
            assert rho == pytest.approx(rho[::-1])  # even in t
        # eps -> 0 recovers |t|^((p+1)/p)
        exact = np.abs(t) ** ((p + 1.0) / p)
        assert smoothed_density(t, 0.0, p) == pytest.approx(exact)


def test_smoothed_power_is_regularized_signed_root():
    t = np.array([-2.0, -0.5, 0.5, 2.0])
    for p in (0.5, 3.0):
        exact = np.sign(t) * np.abs(t) ** (1.0 / p)
        assert smoothed_power(t, 0.0, p) == pytest.approx(exact)
        drift = smoothed_power(t, 1e-8, p) - exact
        assert np.max(np.abs(drift)) <= 1e-6
    assert smoothed_power(np.array([0.0]), 0.0, 3.0) == pytest.approx([0.0])


# ---------------------------------------------------------------------------
# the functional itself


@pytest.fixture(scope="module")
def setup64():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    return grid, assemble(grid, 0.5)


def test_energy_zero_at_zero(setup64):
    grid, op = setup64
    for eps in (0.0, 1e-3):
        rep = energy(op, np.zeros(grid.n_nodes), ExponentPair(0.5, 0.5), smoothing=eps)
        assert rep.value == pytest.approx(0.0, abs=1e-14)
        assert rep.kinetic == pytest.approx(0.0, abs=1e-14)
        assert rep.potential == pytest.approx(0.0, abs=1e-14)


def test_energy_report_parts_are_consistent(setup64):
    grid, op = setup64
    u = 1.0 - grid.x[:, 0] ** 2
    rep = energy(op, u, ExponentPair(3.0, 3.0))
    assert rep.value == pytest.approx(rep.kinetic - rep.potential, rel=1e-12)
    raw_kinetic = rep.kinetic * (3.0 + 1.0) / 3.0
    assert rep.e_norm == pytest.approx(raw_kinetic ** (3.0 / 4.0), rel=1e-12)


def test_energy_accepts_a_precomputed_product(setup64):
    grid, op = setup64
    u = 1.0 - grid.x[:, 0] ** 2
    for eps in (0.0, 1e-3):
        direct = energy(op, u, ExponentPair(0.5, 2.0), smoothing=eps)
        carried = energy(op, u, ExponentPair(0.5, 2.0), smoothing=eps, au=op.apply(u))
        assert carried == direct


def test_energy_value_is_the_row_kernel_bitwise(setup64):
    grid, op = setup64
    stack = np.random.default_rng(2).normal(size=(5, grid.n_nodes))
    for exps in (ExponentPair(3.0, 3.0), ExponentPair(0.5, 2.0)):
        for eps in (0.0, 1e-6):
            rows = energy_value(op, stack, exps, eps)
            assert rows.shape == (5,)
            for u, value in zip(stack, rows):
                assert energy(op, u, exps, eps).value == value
                assert energy_value(op, u, exps, eps) == value


def test_energy_homogeneity_without_smoothing(setup64):
    grid, op = setup64
    u = np.maximum(1.0 - grid.x[:, 0] ** 2, 0.0)
    p, q, t = 3.0, 2.0, 1.7
    base = energy(op, u, ExponentPair(p, q))
    scaled = energy(op, t * u, ExponentPair(p, q))
    assert scaled.kinetic == pytest.approx(t ** ((p + 1.0) / p) * base.kinetic, rel=1e-12)
    assert scaled.potential == pytest.approx(t ** (q + 1.0) * base.potential, rel=1e-12)


def test_sublinear_energy_negative_for_small_positive_multiples(setup64):
    grid, op = setup64
    u = np.maximum(1.0 - grid.x[:, 0] ** 2, 0.0)
    exps = ExponentPair(0.5, 0.5)
    assert energy(op, 1e-3 * u, exps).value < 0
    assert energy(op, 1e-2 * u, exps).value < 0


def test_sublinear_energy_grows_at_large_amplitude(setup64):
    grid, op = setup64
    u = np.maximum(1.0 - grid.x[:, 0] ** 2, 0.0)
    exps = ExponentPair(0.5, 0.5)
    values = [energy(op, t * u, exps).value for t in (10.0, 100.0, 1000.0)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0


def test_superlinear_energy_has_mountain_geometry(setup64):
    grid, op = setup64
    u = np.maximum(1.0 - grid.x[:, 0] ** 2, 0.0)
    exps = ExponentPair(3.0, 3.0)
    assert energy(op, 1e-2 * u, exps).value > 0   # climbs near the origin
    big = 1.0
    while energy(op, big * u, exps).value > 0 and big < 2 ** 40:
        big *= 2.0
    assert energy(op, big * u, exps).value < 0    # and falls beyond the ridge


def test_stationarity_identity_without_smoothing(setup64):
    grid, op = setup64
    rng = np.random.default_rng(5)
    p, q = 3.0, 2.0
    exps = ExponentPair(p, q)
    for _ in range(5):
        u = rng.uniform(-0.2, 1.0, grid.n_nodes)
        rep = energy(op, u, exps)
        g = energy_gradient(op, u, exps)
        raw_kinetic = rep.kinetic * (p + 1.0) / p
        lhs = (q + 1.0) * rep.value - float(g @ u)
        rhs = ((q + 1.0) * p / (p + 1.0) - 1.0) * raw_kinetic
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_gradient_matches_central_differences(setup64):
    grid, op = setup64
    rng = np.random.default_rng(42)
    eps, delta = 1e-2, 1e-5
    for p in (0.5, 1.0, 3.0):
        exps = ExponentPair(p, 2.0)
        for _ in range(10):
            u = rng.uniform(-0.5, 1.0, grid.n_nodes)
            phi = rng.standard_normal(grid.n_nodes)
            phi /= np.max(np.abs(phi))
            exact = float(energy_gradient(op, u, exps, smoothing=eps) @ phi)
            fd = (energy(op, u + delta * phi, exps, smoothing=eps).value
                  - energy(op, u - delta * phi, exps, smoothing=eps).value) / (2 * delta)
            assert fd == pytest.approx(exact, rel=1e-4)


def test_euler_lagrange_residual_detects_stationarity(setup64):
    grid, op = setup64
    exps = ExponentPair(0.5, 0.5)
    # fixed-point construction: u with A sigma(A u) = u^q exactly is stationary
    import oracles
    u, _ = oracles.fixed_point_solution(op, 0.5, 0.5)
    assert euler_lagrange_residual(op, u, exps) <= 1e-10 * op.scale
    assert euler_lagrange_residual(op, u + 0.1, exps) > 1e-3
