"""Analysis layer: regime classification, boundary fits, the integral
identity, uniqueness diagnostics, and the positivity audit."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fraclane import (
    ConfigurationError,
    Domain,
    ExponentPair,
    boundary_exponent_fit,
    boundary_quotient,
    boundary_trace,
    build_grid,
    maximum_principle_audit,
    operator_invariants,
    rellich_residual,
    uniqueness_gap,
)
from fraclane.analysis import (
    _exponent_fit,
    _exponent_window,
    _quotient_fit,
    _quotient_window,
    _ray_samples,
)
from fraclane.cli import _run_solve, _validated

# ---------------------------------------------------------------------------
# classification


def test_classify_reference_cases():
    half = Fraction(1, 2)
    assert ExponentPair(1, 1).regime(1, half) == "resonant"
    assert ExponentPair(2, 2).regime(3, half) == "critical"
    assert ExponentPair(5, 5).regime(1, half) == "superlinear_subcritical"
    assert ExponentPair(half, half).regime(1, half) == "sublinear"
    assert ExponentPair(10, 10).regime(3, half) == "supercritical"


def test_classification_sign_consistency_small_sweep():
    half = Fraction(1, 2)
    for i in range(1, 7):
        for j in range(1, 7):
            pair = ExponentPair(Fraction(i, 2), Fraction(j, 2))
            if pair.pq <= 1:
                continue
            # 1/(p+1) + 1/(q+1) - (n-2s)/n, independently of ExponentPair
            gap = Fraction(2, i + 2) + Fraction(2, j + 2) - Fraction(3 - 2 * half, 3)
            factor = pair.rhs_factor(3, half)
            label = pair.regime(3, half)
            assert factor == 3 * gap
            if gap > 0:
                assert label == "superlinear_subcritical" and factor > 0
            elif gap == 0:
                assert label == "critical" and factor == 0
            else:
                assert label == "supercritical" and factor < 0


# ---------------------------------------------------------------------------
# boundary quotient fits


def test_quotient_on_exact_power_profile_is_one():
    grid = build_grid(Domain.interval(-1.0, 1.0), 128)
    for s in (0.3, 0.5, 0.7):
        fit = boundary_quotient(grid.d ** s, grid, s)
        assert fit.ok.all()
        assert fit.aggregate == pytest.approx(1.0, abs=1e-10)


def test_quotient_on_interval_torsion_profile():
    sqrt2 = oracles.FROZEN["interval_torsion_edge_quotient"]
    errors = {}
    for res in (64, 128, 256):
        grid = build_grid(Domain.interval(-1.0, 1.0), res)
        x = grid.x[:, 0]
        prof = np.maximum(1.0 - x * x, 0.0) ** 0.5
        fit = boundary_quotient(prof, grid, 0.5)
        assert fit.ok.all()
        errors[res] = abs(fit.aggregate - sqrt2) / sqrt2
    assert errors[128] <= 0.01
    assert errors[64] > errors[128] > errors[256]


def test_quotient_on_disk_torsion_profile():
    # (1-r^2)^s / (1-r)^s approaches 2^s at the rim: sqrt(2) for s = 1/2
    sqrt2 = oracles.FROZEN["interval_torsion_edge_quotient"]
    errors = {}
    for res in (32, 64):
        grid = build_grid(Domain.disk(1.0), res)
        prof = np.maximum(1.0 - np.sum(grid.x ** 2, axis=1), 0.0) ** 0.5
        fit = boundary_quotient(prof, grid, 0.5)
        assert fit.ok.all()
        errors[res] = abs(fit.aggregate - sqrt2) / sqrt2
    assert errors[32] <= 0.05
    assert errors[64] <= 0.02
    assert errors[64] < errors[32]


def test_quotient_on_rectangle_away_from_corners():
    grid = build_grid(Domain.rectangle(2.0, 1.0), 32)
    fit = boundary_quotient(grid.d ** 0.5, grid, 0.5)
    assert fit.trace.corners_dropped
    pts = fit.trace.points
    on_x_edges = np.abs(np.abs(pts[:, 0]) - 1.0) < 1e-12
    mid_edge = np.where(on_x_edges, np.abs(pts[:, 1]) <= 0.25,
                        np.abs(pts[:, 0]) <= 0.5)
    sel = mid_edge & fit.ok
    assert sel.sum() >= 32
    assert np.mean(fit.values[sel]) == pytest.approx(1.0, abs=0.04)


def test_quotient_flags_unusable_boundary_data():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    indicator = (grid.d > 0.5).astype(float)  # vanishes near the boundary
    fit = boundary_quotient(indicator, grid, 0.5)
    assert not fit.ok.any()
    assert math.isnan(fit.aggregate)


# ---------------------------------------------------------------------------
# boundary exponent fits


def test_exponent_fit_recovers_pure_powers():
    grid = build_grid(Domain.interval(-1.0, 1.0), 128)
    assert boundary_exponent_fit(grid.d, grid).aggregate == pytest.approx(1.0, abs=1e-8)
    assert boundary_exponent_fit(grid.d ** 0.3, grid).aggregate == pytest.approx(0.3, abs=1e-8)
    assert boundary_exponent_fit(grid.d ** 0.7, grid).aggregate == pytest.approx(0.7, abs=1e-8)


def test_exponent_fit_on_torsion_profile_tightens_with_resolution():
    errs = {}
    for res in (128, 512):
        grid = build_grid(Domain.interval(-1.0, 1.0), res)
        x = grid.x[:, 0]
        prof = np.maximum(1.0 - x * x, 0.0) ** 0.5
        errs[res] = abs(boundary_exponent_fit(prof, grid).aggregate - 0.5)
    assert errs[128] <= 0.05
    assert errs[512] <= 0.02
    assert errs[512] < errs[128]


def _assert_matches_oracle(got, ref):
    """Same usable rays and window, and per-ray values within 1e-13 of the
    per-ray `lstsq`/`polyfit` fits.  The batched QR and the closed-form slope
    round differently; the floor scale covers a slope that is 0 up to
    rounding (a ray along which the samples are constant)."""
    values, ok, window = ref
    assert (got.ok.tolist(), got.window) == (ok.tolist(), window)
    assert np.isnan(got.values[~ok]).all()
    if ok.any():
        np.testing.assert_allclose(got.values[ok], values[ok], rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(values[ok])))


@pytest.mark.parametrize("domain, res, profiles", [
    (Domain.interval(-1.0, 1.0), 256, ("smooth", "half")),
    (Domain.rectangle(2.0, 1.0), 17, ("smooth", "half")),
    (Domain.disk(1.0), 33, ("smooth", "half")),
    (Domain.disk(1.0, center=(0.3, -0.2)), 24, ("smooth", "half")),
    # the benchmark's disk grid; its half-zeroed profile has ill-conditioned
    # 4-sample rays on which any two least-squares methods differ by ~2e-13
    (Domain.disk(1.0), 40, ("smooth",)),
], ids=["interval-256", "rectangle-17", "disk-33", "offset-disk-24", "disk-40"])
def test_boundary_fits_match_the_per_ray_oracle(domain, res, profiles):
    """The batched fits against the point-by-point, ray-by-ray ones; the
    half-zeroed profile makes some rays fail the 4-sample rule."""
    grid = build_grid(domain, res)
    tr = boundary_trace(grid)
    u = {"smooth": grid.d ** 0.5 * (1.0 + 0.3 * grid.x[:, 0]),
         "half": np.where(grid.x[:, -1] > 0.1 * grid.h[-1], grid.d ** 0.4, 0.0)}
    for name in profiles:
        _assert_matches_oracle(boundary_quotient(u[name], grid, 0.5),
                               oracles.boundary_quotient_by_ray(u[name], grid, tr, 0.5))
        _assert_matches_oracle(boundary_exponent_fit(u[name], grid),
                               oracles.boundary_exponent_by_ray(u[name], grid, tr))
    if "half" in profiles:
        assert not boundary_quotient(u["half"], grid, 0.5).ok.all()


def test_the_exponent_window_lies_inside_the_quotient_window():
    # what lets one sampling over the quotient window serve both fits
    for res in range(8, 10 ** 5 + 1):
        (q_lo, q_hi), (e_lo, e_hi) = _quotient_window(res), _exponent_window(res)
        assert q_lo <= e_lo <= e_hi <= q_hi, res


def _assert_same_fit(got, ref):
    assert got.window == ref.window
    assert np.array_equal(got.trace.points, ref.trace.points)
    assert np.array_equal(got.ok, ref.ok)
    assert np.array_equal(got.values, ref.values, equal_nan=True)


@pytest.mark.parametrize("domain, res", [
    (Domain.disk(1.0), 40), (Domain.rectangle(2.0, 1.0), 17), (Domain.interval(-1.0, 1.0), 256),
], ids=["disk-40", "rectangle-17", "interval-256"])
def test_shared_sample_fits_equal_the_fits_on_their_own_bitwise(domain, res):
    """Both fits read one sampling over the quotient window, as
    `rellich_residual` does, and give the standalone fits bit for bit,
    failed rays (the half-zeroed profile) included."""
    grid = build_grid(domain, res)
    tr = boundary_trace(grid)
    for u in (grid.d ** 0.5 * (1.0 + 0.3 * grid.x[:, 0]),
              np.where(grid.x[:, -1] > 0.1 * grid.h[-1], grid.d ** 0.4, 0.0)):
        rays = _ray_samples(grid, tr, u, _quotient_window(res))
        quotient, exponent = _quotient_fit(grid, rays, 0.5), _exponent_fit(grid, rays)
        _assert_same_fit(quotient, boundary_quotient(u, grid, 0.5))
        _assert_same_fit(exponent, boundary_exponent_fit(u, grid))
        rep = rellich_residual(SimpleNamespace(u=u, v=grid.d ** 0.5), ExponentPair(2, 2), grid, 0.5)
        assert (rep.quotient_u, rep.alpha_u) == (quotient.aggregate, exponent.aggregate)


def test_record_fit_fields_match_the_per_ray_oracle():
    """The record's fit-derived fields on the tiny disk, rebuilt from the
    per-ray oracle fits."""
    cfg = _validated({"domain": {"kind": "disk", "radius": 1.0}, "resolution": 12,
                      "p": 2, "q": 2, "s": "1/2", "outdir": "unused"})
    record, pair, grid = _run_solve(cfg)
    assert record["verdict"].startswith("existence:")
    tr = boundary_trace(grid)
    u, v = np.maximum(pair.u, 0.0), np.maximum(pair.v, 0.0)
    qu, ok_u, _ = oracles.boundary_quotient_by_ray(u, grid, tr, 0.5)
    qv, ok_v, _ = oracles.boundary_quotient_by_ray(v, grid, tr, 0.5)
    both = ok_u & ok_v
    au, ok_au, _ = oracles.boundary_exponent_by_ray(u, grid, tr)
    av, ok_av, _ = oracles.boundary_exponent_by_ray(v, grid, tr)
    rebuilt = {
        "alpha_u": np.mean(au[ok_au]),
        "alpha_v": np.mean(av[ok_av]),
        "quotient_u": np.mean(qu[ok_u]),
        "quotient_v": np.mean(qv[ok_v]),
        "rellich_lhs": math.gamma(1.5) ** 2 * np.sum(
            qu[both] * qv[both] * tr.x_dot_nu[both] * tr.weights[both]),
    }
    for key, value in rebuilt.items():
        assert record[key] == pytest.approx(value, rel=1e-12, abs=0), key


def test_record_decay_exponents_are_the_standalone_fits_bitwise():
    cfg = _validated({"domain": {"kind": "disk", "radius": 1.0}, "resolution": 12,
                      "p": 2, "q": 2, "s": "1/2", "outdir": "unused"})
    record, pair, grid = _run_solve(cfg)
    assert record["alpha_u"] == boundary_exponent_fit(np.maximum(pair.u, 0.0), grid).aggregate
    assert record["alpha_v"] == boundary_exponent_fit(np.maximum(pair.v, 0.0), grid).aggregate


# ---------------------------------------------------------------------------
# integral identity


def test_rellich_identity_on_computed_superlinear_pair(superlinear_pair_128, grid128):
    rep = rellich_residual(superlinear_pair_128, ExponentPair(3.0, 3.0), grid128, 0.5)
    assert rep.rhs_factor == pytest.approx(0.5)  # 1/4 + 1/4 - 0
    assert rep.lhs > 0
    assert rep.star_shaped
    assert rep.cross_gap <= 1e-12
    assert rep.residual <= 0.05
    assert rep.boundary_fit_failures == 0


def test_rellich_report_carries_the_boundary_quotients(superlinear_pair_128, grid128):
    pair = superlinear_pair_128
    rep = rellich_residual(pair, ExponentPair(3.0, 3.0), grid128, 0.5)
    assert rep.quotient_u == boundary_quotient(np.maximum(pair.u, 0.0), grid128, 0.5).aggregate
    assert rep.quotient_v == boundary_quotient(np.maximum(pair.v, 0.0), grid128, 0.5).aggregate


def test_rellich_identity_on_computed_sublinear_pair(sublinear_pair_128, grid128):
    rep = rellich_residual(sublinear_pair_128, ExponentPair(0.5, 0.5), grid128, 0.5)
    assert rep.rhs_factor == pytest.approx(4.0 / 3.0)
    assert rep.lhs > 0
    assert rep.cross_gap <= 1e-12
    assert rep.residual <= 0.15


def test_rellich_rhs_vanishes_exactly_on_critical_pairs(disk_grid32):
    # n=2, s=1/2, p=q=3 sits exactly on the critical curve
    prof = np.maximum(1.0 - np.sum(disk_grid32.x ** 2, axis=1), 0.0) ** 0.5

    class Pair:
        u = prof
        v = prof

    rep = rellich_residual(Pair(), ExponentPair(3, 3), disk_grid32, Fraction(1, 2))
    assert rep.rhs_factor == 0.0
    assert rep.rhs == 0.0
    assert rep.lhs > 0  # the obstruction: positive against a zero right side


# ---------------------------------------------------------------------------
# uniqueness diagnostics


def test_uniqueness_gap_identical_pairs(sublinear_pair_128):
    rep = uniqueness_gap(sublinear_pair_128, sublinear_pair_128)
    assert rep.gap_u == 0.0 and rep.gap_v == 0.0
    assert rep.s_hat == 1.0


def test_uniqueness_gap_scaling(sublinear_pair_128):
    class Half:
        u = 0.5 * sublinear_pair_128.u
        v = 0.5 * sublinear_pair_128.v

    rep = uniqueness_gap(Half(), sublinear_pair_128)
    assert rep.s_hat == pytest.approx(0.5, rel=1e-12)


def test_uniqueness_gap_symmetric_product(sublinear_pair_128, superlinear_pair_128):
    fwd = uniqueness_gap(sublinear_pair_128, superlinear_pair_128)
    bwd = uniqueness_gap(superlinear_pair_128, sublinear_pair_128)
    assert fwd.s_hat * bwd.s_hat <= 1.0 + 1e-12


def test_uniqueness_gap_requires_positive_comparison(sublinear_pair_128, grid128):
    class Zero:
        u = np.zeros(grid128.n_nodes)
        v = np.zeros(grid128.n_nodes)

    with pytest.raises(ConfigurationError):
        uniqueness_gap(sublinear_pair_128, Zero())


# ---------------------------------------------------------------------------
# positivity audit and structural invariants


def test_audit_passes_on_interval(op128):
    rep = maximum_principle_audit(op128, trials=100, seed=0)
    assert rep.all_passed
    assert rep.passes == rep.trials == 100
    assert rep.witnesses == []
    assert rep.inverse_nonnegative is None  # too large for the default check


def test_audit_checks_inverse_on_small_operators(op64):
    rep = maximum_principle_audit(op64, trials=25, seed=1)
    assert rep.all_passed
    assert rep.inverse_nonnegative is True


def test_audit_takes_at_least_one_trial(op64):
    # no trial at all would pass vacuously
    for trials in (0, -3):
        with pytest.raises(ConfigurationError, match=f"trials must be at least 1, got {trials}"):
            maximum_principle_audit(op64, trials=trials)


def test_audit_passes_on_disk(disk_op32):
    rep = maximum_principle_audit(disk_op32, trials=25, seed=2)
    assert rep.all_passed


def test_operator_invariants_all_hold(op128, disk_op32):
    for op in (op128, disk_op32):
        flags = operator_invariants(op)
        assert flags == {
            "symmetric": True,
            "diagonal_positive": True,
            "offdiagonal_nonpositive": True,
            "row_sums_positive": True,
            "zero_maps_to_zero": True,
        }
