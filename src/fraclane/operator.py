"""Discrete restricted fractional Laplacian with zero exterior condition.

The operator acts on functions that vanish identically outside the domain.
On a uniform cell-centered grid the action at node i is a weighted sum of
differences u(x_i) - u(x_i + y_k) over all lattice offsets y_k != 0, each
weighted by the exact integral of the kernel C(n,s) |y|^(-n-2s) over the
offset cell.  Because the function is zero outside the domain, every offset
that leaves the domain contributes u(x_i) times its kernel mass; summing
them in closed form makes the matrix diagonal a single constant — the total
kernel mass outside the singular cell — and the assembly exact up to the
per-cell quadrature of the kernel, with no separately truncated tail.

The resulting dense matrix is symmetric with positive diagonal and
nonpositive off-diagonal entries (an M-matrix), which yields the discrete
maximum principle used throughout.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gamma

from .domains import Grid
from .errors import ConfigurationError

__all__ = [
    "normalization_constant",
    "normalization_constant_quadrature",
    "ball_torsion_constant",
    "FractionalOperator",
    "assemble",
]


def _check_order(s) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"fractional order must lie in (0,1), got {s}")
    return s


def normalization_constant(n: int, s: float) -> float:
    """Kernel normalization C(n,s) = 2^(2s) s Gamma((n+2s)/2) / (pi^(n/2) Gamma(1-s)).

    This is the closed form of the reciprocal of the integral
    int_{R^n} (1 - cos(z_1)) / |z|^(n+2s) dz; see
    normalization_constant_quadrature for the direct evaluation of that
    integral, against which this closed form is tested.
    """
    s = _check_order(s)
    if n not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {n}")
    return 2.0 ** (2 * s) * s * gamma((n + 2 * s) / 2.0) / (np.pi ** (n / 2.0) * gamma(1 - s))


def normalization_constant_quadrature(n: int, s: float) -> float:
    """C(n,s) by adaptive quadrature of the defining integral.

    The 1D integral of (1 - cos z)/|z|^(1+2s) is split at |z| = 1: the near
    part is handled by the algebraic-endpoint-weight rule (the integrand is
    z^(1-2s) times a smooth factor), the constant part of the far field is
    exact, and the oscillatory remainder uses the cosine-weighted adaptive
    rule.  The 2D integral reduces exactly to the 1D one after integrating
    the kernel across the second coordinate, which contributes the factor
    int (1+t^2)^(-1-s) dt, itself computed adaptively.
    """
    s = _check_order(s)
    if n not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {n}")

    def smooth_factor(z):
        # (1 - cos z)/z^2 with the cancellation-prone region replaced by its
        # Taylor polynomial (relative error below 1e-14 at the crossover)
        z = np.asarray(z, dtype=float)
        small = np.abs(z) < 1e-3
        zs = np.where(small, 1.0, z)
        series = 0.5 - z * z / 24.0 + z ** 4 / 720.0
        return np.where(small, series, (1.0 - np.cos(zs)) / (zs * zs))

    near, _ = quad(smooth_factor, 0.0, 1.0, weight="alg", wvar=(1.0 - 2 * s, 0.0),
                   epsabs=1e-13, epsrel=1e-12)
    # integrate the oscillatory tail by parts once so the sine-weighted rule
    # sees an integrand decaying like z^(-2-2s) instead of z^(-1-2s)
    tail, _ = quad(lambda z: z ** (-2.0 - 2 * s), 1.0, np.inf, weight="sin", wvar=1.0,
                   epsabs=1e-13, epsrel=1e-12, limit=400)
    osc = -np.sin(1.0) + (1.0 + 2 * s) * tail
    integral_1d = 2.0 * (near + 1.0 / (2.0 * s) - osc)
    if n == 1:
        return 1.0 / integral_1d
    cross, _ = quad(lambda t: (1.0 + t * t) ** (-1.0 - s), -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
    return 1.0 / (cross * integral_1d)


def ball_torsion_constant(n: int, s: float) -> float:
    """The constant value the operator gives on (1-|x|^2)_+^s in the unit ball:
    2^(2s) Gamma(1+s) Gamma((n+2s)/2) / Gamma(n/2).  Equals 1 for n=1, s=1/2."""
    s = _check_order(s)
    return 2.0 ** (2 * s) * gamma(1 + s) * gamma((n + 2 * s) / 2.0) / gamma(n / 2.0)


# ---------------------------------------------------------------------------
# kernel cell masses


def _beta_1d(n_offsets: int, h: float, s: float) -> np.ndarray:
    """Exact integrals of |y|^(-1-2s) over the offset cells k = 1..n_offsets."""
    k = np.arange(1, n_offsets + 1)
    return (((k - 0.5) * h) ** (-2 * s) - ((k + 0.5) * h) ** (-2 * s)) / (2 * s)


def _ktotal_1d(h: float, s: float) -> float:
    """Total kernel mass over |y| > h/2."""
    return (h / 2.0) ** (-2 * s) / s


def _beta_table_2d(kx: int, ky: int, h1: float, h2: float, s: float) -> np.ndarray:
    """Gauss-Legendre integrals of |y|^(-2-2s) over each offset cell.

    The kernel is steep near the origin, so the quadrature order is graded
    by the offset's Chebyshev distance.
    """
    table = np.zeros((kx + 1, ky + 1))
    rules = {}
    for k1 in range(kx + 1):
        for k2 in range(ky + 1):
            if k1 == 0 and k2 == 0:
                continue
            m = 12 if max(k1, k2) <= 2 else (6 if max(k1, k2) <= 8 else 4)
            if m not in rules:
                rules[m] = leggauss(m)
            gx, gw = rules[m]
            xs = k1 * h1 + 0.5 * h1 * gx
            ys = k2 * h2 + 0.5 * h2 * gx
            r2 = xs[:, None] ** 2 + ys[None, :] ** 2
            wts = (0.5 * h1 * gw)[:, None] * (0.5 * h2 * gw)[None, :]
            table[k1, k2] = float(np.sum(wts * r2 ** (-1.0 - s)))
    return table


def _ktotal_2d(h1: float, h2: float, s: float) -> float:
    """Total kernel mass over the complement of the central cell, by the
    exact polar integral (the radial formula sigma_1/(2s) * (h/2)^(-2s)
    would miss the corner regions of the cell complement)."""

    def cell_radius(th):
        c, sn = abs(np.cos(th)), abs(np.sin(th))
        rx = h1 / (2 * c) if c > 1e-300 else np.inf
        ry = h2 / (2 * sn) if sn > 1e-300 else np.inf
        return min(rx, ry)

    def f(th):
        return cell_radius(th) ** (-2 * s) / (2 * s)

    corner = np.arctan2(h2, h1)
    a, _ = quad(f, 0.0, corner, limit=200, epsabs=1e-13, epsrel=1e-12)
    b, _ = quad(f, corner, np.pi / 2, limit=200, epsabs=1e-13, epsrel=1e-12)
    return 4.0 * (a + b)


def _second_moments(dim: int, h: tuple, s: float) -> tuple:
    """Per-axis integrals of y_a^2 |y|^(-n-2s) over the central cell, used by
    the optional singular-cell correction."""
    if dim == 1:
        (h1,) = h
        return (2.0 * (h1 / 2.0) ** (2 - 2 * s) / (2 - 2 * s),)
    h1, h2 = h
    gx, gw = leggauss(24)
    xs = 0.25 * h1 * (gx + 1.0)  # quarter cell [0, h1/2]
    ys = 0.25 * h2 * (gx + 1.0)
    wts = (0.25 * h1 * gw)[:, None] * (0.25 * h2 * gw)[None, :]
    r2 = xs[:, None] ** 2 + ys[None, :] ** 2
    kern = r2 ** (-1.0 - s)
    cx = 4.0 * float(np.sum(wts * xs[:, None] ** 2 * kern))
    cy = 4.0 * float(np.sum(wts * ys[None, :] ** 2 * kern))
    return cx, cy


class FractionalOperator:
    """Assembled dense operator on a grid's interior nodes."""

    def __init__(self, grid: Grid, s: float, matrix: np.ndarray, singular_correction: bool):
        self.grid = grid
        self.s = s
        self.n = grid.dim
        self.matrix = matrix
        self.singular_correction = singular_correction
        self._factor = None

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u, or for a (k, N) stack the k products as rows: one gemv per row
        (matmul over a trailing unit axis), bitwise equal to the one-row
        product, which a GEMM such as u @ A.T is not."""
        if np.ndim(u) == 1:
            return self.matrix @ u
        return np.matmul(self.matrix, u[..., None])[..., 0]

    def factor(self):
        if self._factor is None:
            self._factor = cho_factor(self.matrix)
        return self._factor

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Solve A w = f by the cached Cholesky factor.  No finiteness scan:
        the factor comes from the assembled, finite matrix, and a
        non-finite f gives a non-finite w instead of an error."""
        return cho_solve(self.factor(), f, check_finite=False)

    @property
    def scale(self) -> float:
        """Magnitude of the diagonal, the natural residual scale."""
        return float(self.matrix[0, 0])


def assemble(grid: Grid, s: float, singular_correction: bool = False) -> FractionalOperator:
    """Build the dense symmetric operator matrix for the grid.

    With `singular_correction` the central cell, which contributes nothing
    for flat functions, adds the analytic kernel second moment times a
    second-difference estimate of the curvature.  The correction keeps the
    M-matrix sign pattern and matters as s -> 1, where the central cell
    carries most of the operator's mass.
    """
    s = _check_order(s)
    c = normalization_constant(grid.dim, s)
    lat = grid.lattice
    if grid.dim == 1:
        h = grid.h[0]
        beta = _beta_1d(grid.resolution - 1, h, s) if grid.resolution > 1 else np.empty(0)
        diff = np.abs(lat[:, 0][:, None] - lat[:, 0][None, :])
        matrix = np.zeros((grid.n_nodes, grid.n_nodes))
        off = diff > 0
        matrix[off] = -c * beta[diff[off] - 1]
        np.fill_diagonal(matrix, c * _ktotal_1d(h, s))
    else:
        h1, h2 = grid.h
        table = _beta_table_2d(grid.resolution - 1, grid.resolution - 1, h1, h2, s)
        d1 = np.abs(lat[:, 0][:, None] - lat[:, 0][None, :])
        d2 = np.abs(lat[:, 1][:, None] - lat[:, 1][None, :])
        matrix = -c * table[d1, d2]
        np.fill_diagonal(matrix, c * _ktotal_2d(h1, h2, s))
    if singular_correction:
        _add_singular_correction(matrix, grid, s, c)
    return FractionalOperator(grid, s, matrix, singular_correction)


def _add_singular_correction(matrix: np.ndarray, grid: Grid, s: float, c: float) -> None:
    moments = _second_moments(grid.dim, grid.h, s)
    index = {tuple(k): i for i, k in enumerate(grid.lattice)}
    for axis, moment in enumerate(moments):
        coeff = 0.5 * c * moment / grid.h[axis] ** 2
        for i, k in enumerate(grid.lattice):
            matrix[i, i] += 2.0 * coeff
            for step in (-1, 1):
                kk = list(k)
                kk[axis] += step
                j = index.get(tuple(kk))
                if j is not None:
                    matrix[i, j] -= coeff
                # neighbours outside the domain hold the value 0; their
                # term is simply absent

