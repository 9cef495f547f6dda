"""Verification battery: boundary-behavior fits, the boundary/interior
integral identity, uniqueness diagnostics, and the maximum principle audit.

The boundary fits share one geometric convention: along the inward normal of
each boundary trace point, samples sit at distances (k - 1/2) * h_ray,
matching the cell-center layout, and fits use resolution-scaled index
windows.  A fixed window cannot work here: the discretization carries a
self-similar boundary layer whose pointwise error at the k-th node from the
boundary is resolution-independent (~ k^-(2-2s)), so fixed-depth fits have a
resolution-independent bias.  The quotient fit therefore includes the layer
shape as a regressor and widens its window like the square root of the
resolution, which restores convergence under refinement.  All rays with
at least 4 positive samples are fitted together, with weight 0 on the
other samples: the quotient by one batched QR, the exponent by the
closed-form least-squares slope.  The exponent window lies inside the
quotient window, so `rellich_residual` samples each function's rays once,
on one boundary trace, and both fits read those samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .domains import BoundaryTrace, Grid, boundary_trace, interpolate
from .energy import ExponentPair
from .errors import ConfigurationError
from .operator import FractionalOperator

EPS_FLOOR = 1e-14  # relative-residual denominators (the critical case has rhs exactly 0)
AUDIT_INVERSE_MAX_NODES = 64  # the audit also checks the dense inverse up to this size

__all__ = [
    "BoundaryFit", "boundary_quotient", "boundary_exponent_fit",
    "RellichReport", "rellich_residual", "UniquenessReport", "uniqueness_gap",
    "AuditReport", "maximum_principle_audit", "operator_invariants",
]


# ---------------------------------------------------------------------------
# rays along inward normals


def _quotient_window(resolution: int) -> tuple:
    return 2, max(12, round(1.2 * np.sqrt(resolution)))


def _exponent_window(resolution: int) -> tuple:
    k0 = max(3, round(0.4 * np.sqrt(resolution)))
    return k0, 2 * k0


def _ray_samples(grid: Grid, tr: BoundaryTrace, u: np.ndarray, window: tuple) -> tuple:
    """Samples of the grid function at distances (k-1/2)*h_ray inward from
    every point of the boundary trace, k over the window.  Returns (trace,
    window, values), values of shape (B, K).

    Each value is the multilinear interpolation of u extended by zero
    (`domains.interpolate`); where a ray runs along a lattice line (1D,
    rectangle sides) it reproduces the node values up to rounding.
    """
    dist = (np.arange(window[0], window[1] + 1) - 0.5) * min(grid.h)
    pts = tr.points[:, None, :] - dist[None, :, None] * tr.normals[:, None, :]
    return tr, window, interpolate(grid, u, pts)


def _positive_rays(grid: Grid, rays: tuple, window: tuple) -> tuple:
    """The ray samples over `window` (inside theirs), split for the masked
    fits, bitwise as if sampled over `window` alone.  Returns (d, ok, w, logs):
    `ok` flags the rays with at least 4 positive samples, and for those rays
    only, `w` is the (B_ok, K) 0/1 weight of the positive samples and `logs`
    their logarithms (0 where the weight is 0)."""
    _, (k_lo, _), samples = rays
    samples = samples[:, window[0] - k_lo:window[1] - k_lo + 1]
    usable = samples > 0
    ok = np.sum(usable, axis=1) >= 4
    positive = usable[ok]
    dist = (np.arange(window[0], window[1] + 1) - 0.5) * min(grid.h)
    return dist, ok, positive.astype(float), np.log(np.where(positive, samples[ok], 1.0))


def _on_ok_rays(ok: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    values = np.full(len(ok), np.nan)
    values[ok] = fitted
    return values


@dataclass(frozen=True)
class BoundaryFit:
    """Per-boundary-point fit results; `ok` flags points with enough usable
    samples, `value` holds the fitted quantity (NaN where not ok)."""

    values: np.ndarray
    ok: np.ndarray
    trace: BoundaryTrace
    window: tuple

    @property
    def aggregate(self) -> float:
        """Mean over successful points."""
        if not np.any(self.ok):
            return float("nan")
        return float(np.mean(self.values[self.ok]))


def boundary_quotient(u: np.ndarray, grid: Grid, s: float) -> BoundaryFit:
    """Fit the boundary factor c in u ~ c * d^s at each boundary trace point.

    Least squares of log u - s log d on {1, d, (d/h)^-(2-2s)} over ray
    samples k in [2, max(12, 1.2*sqrt(resolution))]: the constant is log c,
    the linear term absorbs the smooth interior profile, and the power term
    absorbs the scheme's self-similar boundary layer.  Every ray with at
    least 4 positive samples is fitted at once, by one batched QR of the
    (B, K, 3) designs whose other samples have weight 0.
    """
    if np.any(u < 0):
        raise ConfigurationError("boundary_quotient expects a nonnegative function")
    rays = _ray_samples(grid, boundary_trace(grid), u, _quotient_window(grid.resolution))
    return _quotient_fit(grid, rays, float(s))


def _quotient_fit(grid: Grid, rays: tuple, s: float) -> BoundaryFit:
    window = _quotient_window(grid.resolution)
    dist, ok, w, logu = _positive_rays(grid, rays, window)
    design = np.stack([np.ones(len(dist)), dist, (dist / min(grid.h)) ** (-(2.0 - 2.0 * s))], axis=1)
    q, r = np.linalg.qr(w[:, :, None] * design)
    qty = np.einsum("bkj,bk->bj", q, w * (logu - s * np.log(dist)))
    coef = np.linalg.solve(r, qty[:, :, None])[:, 0, 0]
    return BoundaryFit(_on_ok_rays(ok, np.exp(coef)), ok, rays[0], window)


def boundary_exponent_fit(u: np.ndarray, grid: Grid) -> BoundaryFit:
    """Log-log slope of u against boundary distance along each inward
    normal, over ray samples k in [k0, 2*k0] with k0 = max(3,
    0.4*sqrt(resolution)).  For solutions of the coupled system the slope
    approaches the fractional order s.  Every ray with at least 4 positive
    samples gets the closed-form least-squares slope over those samples."""
    if np.any(u < 0):
        raise ConfigurationError("boundary_exponent_fit expects a nonnegative function")
    if not np.any(u > 0):
        raise ConfigurationError("boundary_exponent_fit expects a nonzero function")
    rays = _ray_samples(grid, boundary_trace(grid), u, _exponent_window(grid.resolution))
    return _exponent_fit(grid, rays)


def _exponent_fit(grid: Grid, rays: tuple) -> BoundaryFit:
    window = _exponent_window(grid.resolution)
    dist, ok, w, logu = _positive_rays(grid, rays, window)
    n = np.sum(w, axis=1, keepdims=True)
    x = np.log(dist) - np.sum(w * np.log(dist), axis=1, keepdims=True) / n
    y = logu - np.sum(w * logu, axis=1, keepdims=True) / n
    slope = np.sum(w * x * y, axis=1) / np.sum(w * x * x, axis=1)
    return BoundaryFit(_on_ok_rays(ok, slope), ok, rays[0], window)


# ---------------------------------------------------------------------------
# boundary/interior integral identity


@dataclass(frozen=True)
class RellichReport:
    """Both sides of the identity

        Gamma(1+s)^2 * surface_int (u/d^s)(v/d^s) (x . nu) dsigma
            = [n/(q+1) + n/(p+1) - (n-2s)] * int u^(q+1)

    together with the cross-integral gap |int v^(p+1) - int u^(q+1)| /
    int u^(q+1), which is zero for exact solutions.  The sign of rhs_factor
    is what rules out positive solutions on star-shaped domains at and above
    the critical curve: the left side is strictly positive there while the
    right side is <= 0.  quotient_u and quotient_v are the mean boundary
    factors u/d^s and v/d^s of the two fits, alpha_u and alpha_v the mean
    boundary decay exponents fitted from the same ray samples."""

    lhs: float
    rhs: float
    rhs_factor: float
    residual: float
    cross_gap: float
    star_shaped: bool
    corners_dropped: bool
    boundary_fit_failures: int
    quotient_u: float
    quotient_v: float
    alpha_u: float
    alpha_v: float


def rellich_residual(pair, exps: ExponentPair, grid: Grid, s: float) -> RellichReport:
    """Evaluate the integral identity on a computed pair.

    `pair` provides u and v (a SolutionPair or any object with .u/.v).
    """
    u, v = np.maximum(pair.u, 0.0), np.maximum(pair.v, 0.0)
    sf = float(s)
    tr, window = boundary_trace(grid), _quotient_window(grid.resolution)
    rays_u, rays_v = (_ray_samples(grid, tr, w, window) for w in (u, v))
    fit_u, fit_v = (_quotient_fit(grid, rays, sf) for rays in (rays_u, rays_v))
    both = fit_u.ok & fit_v.ok
    lhs = gamma(1 + sf) ** 2 * float(
        np.sum(fit_u.values[both] * fit_v.values[both] * tr.x_dot_nu[both] * tr.weights[both])
    )
    factor = float(exps.rhs_factor(grid.dim, s))
    int_uq = grid.integrate(u ** (exps.qf + 1.0))
    int_vp = grid.integrate(v ** (exps.pf + 1.0))
    rhs = factor * int_uq
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), EPS_FLOOR)
    cross_gap = abs(int_vp - int_uq) / max(int_uq, EPS_FLOOR)
    return RellichReport(
        lhs=lhs, rhs=rhs, rhs_factor=factor, residual=residual, cross_gap=cross_gap,
        star_shaped=grid.domain.is_star_shaped_wrt_origin(),
        corners_dropped=tr.corners_dropped,
        boundary_fit_failures=int(np.sum(~both)),
        quotient_u=fit_u.aggregate, quotient_v=fit_v.aggregate,
        alpha_u=_exponent_fit(grid, rays_u).aggregate,
        alpha_v=_exponent_fit(grid, rays_v).aggregate,
    )


# ---------------------------------------------------------------------------
# uniqueness diagnostics


@dataclass(frozen=True)
class UniquenessReport:
    """Sup-norm gaps between two pairs and the sliding factor s_hat =
    min over nodes of min(u1/u2, v1/v2): how far pair2 can be scaled up
    while staying below pair1.  Two copies of the same solution give gaps 0
    and s_hat = 1."""

    gap_u: float
    gap_v: float
    s_hat: float


def uniqueness_gap(pair1, pair2) -> UniquenessReport:
    u1, v1 = pair1.u, pair1.v
    u2, v2 = pair2.u, pair2.v
    if u1.shape != u2.shape:
        raise ConfigurationError("uniqueness_gap needs pairs on the same grid")
    if not (np.min(u2) > 0 and np.min(v2) > 0):
        raise ConfigurationError("uniqueness_gap needs strictly positive comparison pair")
    gap_u = float(np.max(np.abs(u1 - u2)))
    gap_v = float(np.max(np.abs(v1 - v2)))
    s_hat = float(min(np.min(u1 / u2), np.min(v1 / v2)))
    return UniquenessReport(gap_u, gap_v, s_hat)


# ---------------------------------------------------------------------------
# maximum principle audit


@dataclass(frozen=True)
class AuditReport:
    trials: int
    passes: int
    witnesses: list  # one dict per violation
    inverse_nonnegative: bool | None  # None when the inverse was not checked

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials and not self.witnesses


def maximum_principle_audit(op: FractionalOperator, trials: int = 100,
                            seed: int = 0) -> AuditReport:
    """Random nonnegative right-hand sides (trials >= 1 of them) must give
    strictly positive solutions; on operators of at most AUDIT_INVERSE_MAX_NODES
    nodes the matrix inverse must also be entrywise nonnegative."""
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    n = op.n_nodes
    passes = 0
    witnesses = []
    for trial in range(trials):
        f = rng.uniform(0.0, 1.0, n)
        if trial % 2 == 1:
            # sparse right-hand sides exercise the nonlocal spreading
            keep = rng.uniform(0.0, 1.0, n) < 0.1
            f = np.where(keep, f, 0.0)
            if not np.any(f > 0):
                f[int(rng.integers(0, n))] = 1.0
        w = op.solve(f)
        wmin = float(np.min(w))
        if wmin > 0.0:
            passes += 1
        else:
            witnesses.append({
                "trial": trial,
                "min_value": wmin,
                "argmin": int(np.argmin(w)),
            })
    inv_ok = None
    if n <= AUDIT_INVERSE_MAX_NODES:
        inv = np.linalg.inv(op.matrix)
        inv_ok = bool(np.min(inv) >= -1e-13 * np.max(np.abs(inv)))
    return AuditReport(trials, passes, witnesses, inv_ok)


def operator_invariants(op: FractionalOperator) -> dict:
    """Structural checks on the assembled matrix: symmetry, sign pattern,
    positive row sums, and annihilation of the zero function."""
    a = op.matrix
    off = a - np.diag(np.diag(a))
    return {
        "symmetric": bool(np.max(np.abs(a - a.T)) == 0.0),
        "diagonal_positive": bool(np.min(np.diag(a)) > 0.0),
        "offdiagonal_nonpositive": bool(np.max(off) <= 0.0),
        "row_sums_positive": bool(np.min(a.sum(axis=1)) > 0.0),
        "zero_maps_to_zero": bool(np.max(np.abs(op.apply(np.zeros(op.n_nodes)))) == 0.0),
    }
