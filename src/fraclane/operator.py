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

Every entry depends only on the lattice offset between its two nodes, so
`assemble` tabulates the entries once per offset and mirrors the table to
every signed offset; the N x N matrix A is gathered from that table a row
block at a time when it is first used.

The resulting dense matrix is symmetric with positive diagonal and
nonpositive off-diagonal entries (an M-matrix), which yields the discrete
maximum principle used throughout.

On a grid whose node set is closed under its lattice group (`Grid.orbit`),
A commutes with the group; `FractionalOperator.reduced` gives its form on
the symmetric functions, the M x M M-matrix S = E^T A E for the N x M orbit
expansion E, gathered from the same table without forming A.  S is
factored with SciPy's OpenBLAS on one thread, since two threads can stall
for hundreds of milliseconds on a few hundred unknowns (README, "Threads");
full-space factorizations keep the thread count their results depend on.
NumPy's OpenBLAS, which computes the products, is left as the environment
sets it: its gemv gives the same bits at 1 and 2 threads (tests).
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, get_lapack_funcs
from scipy.special import beta, betainc, gamma

from .domains import Grid
from .errors import ConfigurationError

__all__ = ["normalization_constant", "ball_torsion_constant", "FractionalOperator", "assemble"]


def _scipy_blas():
    """(get, set) of the thread count of the scipy-openblas library a Linux
    SciPy wheel bundles in `scipy.libs` and has loaded, else None (MKL,
    Accelerate, a system OpenBLAS, another platform)."""
    for path in (Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas-*.so"):
        try:  # RTLD_NOLOAD: only the copy SciPy already loaded
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads
            set_threads = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


_SCIPY_BLAS = _scipy_blas()


def _rational(value, name: str) -> Fraction:
    """The exact rational of a number or of its text (a float is the dyadic
    rational it holds).  A boolean, NaN, infinities, malformed text and values
    beyond the float range, which the solvers compute in, raise."""
    try:
        if isinstance(value, bool):
            raise TypeError
        exact = Fraction(value)
        float(exact)
        return exact
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None


def _check_order(s) -> Fraction:
    """The exact rational of the order `s`, which must lie in (0, 1) as given
    and as a float."""
    order = _rational(s, "s")
    if not (0 < order < 1 and 0.0 < float(order) < 1.0):
        raise ConfigurationError(f"fractional order must lie in (0,1), got {s}")
    return order


def normalization_constant(n: int, s: float) -> float:
    """Kernel normalization C(n,s) = 2^(2s) s Gamma((n+2s)/2) / (pi^(n/2) Gamma(1-s)).

    This is the closed form of the reciprocal of the integral
    int_{R^n} (1 - cos(z_1)) / |z|^(n+2s) dz.  The test oracles
    (tests/oracles.py) evaluate that integral directly by adaptive
    quadrature, and the tests compare this closed form against it.
    """
    s = float(_check_order(s))
    if n not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {n}")
    return 2.0 ** (2 * s) * s * gamma((n + 2 * s) / 2.0) / (np.pi ** (n / 2.0) * gamma(1 - s))


def ball_torsion_constant(n: int, s: float) -> float:
    """The constant value the operator gives on (1-|x|^2)_+^s in the unit ball:
    2^(2s) Gamma(1+s) Gamma((n+2s)/2) / Gamma(n/2).  Equals 1 for n=1, s=1/2."""
    s = float(_check_order(s))
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


@functools.cache
def _gauss_legendre(m: int) -> tuple:
    """`leggauss(m)`, computed once per process; read-only, as it is shared."""
    nodes, weights = leggauss(m)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _beta_table_2d(k: int, h1: float, h2: float, s: float) -> np.ndarray:
    """Gauss-Legendre integrals of |y|^(-2-2s) over the offset cells
    0 <= k1, k2 <= k but (0, 0), whose entry is 0.

    The kernel is steep near the origin, so the quadrature order is graded
    by the offset's Chebyshev distance.  Each cell's m*m terms are summed
    as one contiguous run, the same pairwise sum as a per-cell np.sum.
    """
    k1, k2 = np.indices((k + 1, k + 1))
    cheb = np.maximum(k1, k2)
    table = np.zeros((k + 1, k + 1))
    for m, cells in ((12, (cheb > 0) & (cheb <= 2)), (6, (cheb > 2) & (cheb <= 8)), (4, cheb > 8)):
        gx, gw = _gauss_legendre(m)
        xs = k1[cells][:, None] * h1 + 0.5 * h1 * gx
        ys = k2[cells][:, None] * h2 + 0.5 * h2 * gx
        r2 = xs[:, :, None] ** 2 + ys[:, None, :] ** 2
        wts = (0.5 * h1 * gw)[:, None] * (0.5 * h2 * gw)[None, :]
        table[cells] = (wts * r2 ** (-1.0 - s)).reshape(-1, m * m).sum(axis=1)
    return table


def _ktotal_2d(h1: float, h2: float, s: float) -> float:
    """Total kernel mass over the complement of the central cell, by the
    polar integral in closed form (the radial formula sigma_1/(2s) * (h/2)^(-2s)
    would miss the corner regions of the cell complement).

    Below the corner angle phi = atan(h2/h1) the cell boundary is at radius
    h1/(2 cos t), above it at h2/(2 sin t), and
    int_0^phi cos^(2s) t dt = B(1/2, s+1/2) I_{sin^2 phi}(1/2, s+1/2) / 2.
    """
    d2 = h1 * h1 + h2 * h2
    a, b = 0.5, s + 0.5
    return beta(a, b) / s * ((2.0 / h1) ** (2 * s) * betainc(a, b, h2 * h2 / d2)
                             + (2.0 / h2) ** (2 * s) * betainc(a, b, h1 * h1 / d2))


def _second_moments(dim: int, h: tuple, s: float) -> tuple:
    """Per-axis integrals of y_a^2 |y|^(-n-2s) over the central cell, used by
    the optional singular-cell correction.

    In 2D the integrand is singular at the origin, so it is integrated in
    polar form: the radial part to the cell boundary R(t) is exact,
    R^(2-2s)/(2-2s), and the angle is summed by Gauss-Legendre on each side
    of the corner angle, where R(t) = h1/(2 cos t), resp. h2/(2 sin t), is
    smooth.
    """
    if dim == 1:
        (h1,) = h
        return (2.0 * (h1 / 2.0) ** (2 - 2 * s) / (2 - 2 * s),)
    h1, h2 = h
    gx, gw = _gauss_legendre(48)
    corner = np.arctan2(h2, h1)
    cx = cy = 0.0
    for lo, hi, half_side, trig in ((0.0, corner, 0.5 * h1, np.cos),
                                    (corner, np.pi / 2, 0.5 * h2, np.sin)):
        th = 0.5 * (hi - lo) * gx + 0.5 * (hi + lo)
        radius = half_side / trig(th)
        radial = 0.5 * (hi - lo) * gw * radius ** (2 - 2 * s) / (2 - 2 * s)
        cx += 4.0 * float(np.sum(radial * np.cos(th) ** 2))  # four congruent quadrants
        cy += 4.0 * float(np.sum(radial * np.sin(th) ** 2))
    return cx, cy


def _positions(grid: Grid) -> tuple:
    """Flat positions of the nodes and of offset 0 in the box of signed offsets."""
    box = (2 * grid.resolution - 1,) * grid.dim
    return (np.ravel_multi_index(tuple(grid.lattice.T), box),
            np.ravel_multi_index((grid.resolution - 1,) * grid.dim, box))


class FractionalOperator:
    """The operator on a grid, given by its matrix or by the kernel `table`
    of `assemble`, in which nodes i and j couple by
    table[pos_j - pos_i + center] (`_positions`).  `apply` is
    u -> (matrix u)/m and `solve` f -> matrix^{-1} (m f) for the grid's
    multiplicities m: in the full space m is 1 and the matrix is A, so
    results are those of A alone, bit for bit; on a reduced form, whose grid
    holds the orbit representatives, m holds the orbit sizes and the matrix
    is S.  `singular_correction` records how `assemble` built the table, so
    an operator on another grid can be assembled the same way."""

    def __init__(self, grid: Grid, s, matrix: np.ndarray | None = None,
                 singular_correction: bool = False, table: np.ndarray | None = None,
                 orbits: tuple | None = None):
        self.grid = grid
        self.s = s
        self.n = grid.dim
        self.table = table
        self.singular_correction = singular_correction
        self._matrix = matrix
        # a reduced form's representative node of each orbit and orbit of each node
        self.rep, self.orbit = orbits or (None, None)
        # magnitude of A's diagonal (offset 0), the natural residual scale
        self.scale = float(matrix[0, 0] if table is None else table[table.size // 2])
        self._factor = None

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def matrix(self) -> np.ndarray:
        """The matrix; A is gathered from the table on first use, about 2^16
        entries at a time, so no N x N temporary is formed."""
        if self._matrix is None:
            pos, center = _positions(self.grid)
            self._matrix = np.empty((self.n_nodes, self.n_nodes))
            step = max(1, (1 << 16) // self.n_nodes)
            for start in range(0, self.n_nodes, step):
                index = pos + (center - pos[start:start + step, None])
                # every index is in range; mode="raise" would buffer the output block
                np.take(self.table, index, out=self._matrix[start:start + step], mode="clip")
        return self._matrix

    def reduced(self) -> FractionalOperator:
        """The factored form on the symmetric subspace, built anew by every
        call; the operator itself when it is given by a matrix (which need
        not commute with the group) or its grid is not closed (`Grid.orbit`).

        A is invariant under the group, so (E^T A E)_ij is m_i times the row
        of A at representative i with its columns summed over orbit j.  Each
        block of about 2^16 / N representative rows is gathered from the
        table only over the orbits from the block's first one on; the upper
        triangle is then mirrored row by row, so that S is bitwise symmetric.
        """
        grid, orbit = self.grid, self.grid.orbit
        if self.table is None or orbit is None:
            return self
        order = np.argsort(orbit, kind="stable")  # the nodes, orbit by orbit
        sizes = np.bincount(orbit)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rep = order[starts]  # each orbit's smallest node index
        pos, center = _positions(grid)
        matrix = np.zeros((len(rep), len(rep)))
        step = max(1, (1 << 16) // len(order))
        for start in range(0, len(rep), step):
            first = starts[start]
            index = pos[order[first:]] + (center - pos[rep[start:start + step], None])
            np.add.reduceat(np.take(self.table, index), starts[start:] - first, axis=1,
                            out=matrix[start:start + step, start:])
        matrix *= sizes[:, None]
        for i in range(len(rep) - 1):
            matrix[i + 1:, i] = matrix[i, i + 1:]
        reps = replace(grid, lattice=grid.lattice[rep], x=grid.x[rep], d=grid.d[rep],
                       weights=grid.weights[rep] * sizes, multiplicity=sizes.astype(float),
                       orbit=None)
        reduced = FractionalOperator(reps, self.s, matrix, self.singular_correction,
                                     self.table, (rep, orbit))
        reduced.factor()
        return reduced

    @property
    def symmetry(self) -> dict | None:
        """Where it acts: None on the grid's nodes, else the group order and orbit count."""
        return None if self.orbit is None else {"group_order": self.grid.group_order,
                                                "orbits": self.n_nodes}

    def expand(self, x: np.ndarray) -> np.ndarray:
        """A function of the unknowns as a function of the grid's nodes."""
        return x if self.orbit is None else x[..., self.orbit]

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """A symmetric function of the grid's nodes as one of the unknowns."""
        return x if self.rep is None else x[..., self.rep]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """(matrix u)/m, or for a (k, N) stack the k products as rows: one gemv
        per row (matmul over a trailing unit axis), bitwise equal to the
        one-row product, which a GEMM such as u @ A.T is not."""
        return np.matmul(self.matrix, u[..., None])[..., 0] / self.grid.multiplicity

    def factor(self):
        """The Cholesky factor of `matrix`, by `cho_factor` on first use; a
        reduced form's with SciPy's OpenBLAS on one thread (module notes)."""
        if self._factor is None:
            threads = _SCIPY_BLAS and self.orbit is not None and _SCIPY_BLAS[0]()
            if threads:
                _SCIPY_BLAS[1](1)
            try:
                factor = cho_factor(self.matrix)
            finally:
                if threads:
                    _SCIPY_BLAS[1](threads)
            (self._potrs,) = get_lapack_funcs(("potrs",), (factor[0],))
            self._factor = factor
        return self._factor

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Solve matrix w = m f by the cached Cholesky factor (LAPACK potrs,
        as in cho_solve without its checks).  No finiteness scan: the factor
        is of a finite matrix, and a non-finite f gives a non-finite w."""
        factor, lower = self.factor()
        w, info = self._potrs(factor, self.grid.multiplicity * f, lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
        return w


def assemble(grid: Grid, s, singular_correction: bool = False) -> FractionalOperator:
    """Tabulate the operator's kernel over the lattice offsets of the grid;
    the matrix is gathered from the table when first used.  The operator
    keeps the exact rational of `s`, for the regime: a float is the dyadic
    rational it holds and text such as "1/3" is read.  The kernel uses its
    float.

    With `singular_correction` the central cell, which contributes nothing
    for flat functions, adds the analytic kernel second moment times a
    second-difference estimate of the curvature.  The correction keeps the
    M-matrix sign pattern and matters as s -> 1, where the central cell
    carries most of the operator's mass.
    """
    order = _check_order(s)
    s = float(order)
    c = normalization_constant(grid.dim, s)
    res, dim = grid.resolution, grid.dim
    # kern[|offset| per axis]: c K_total at offset 0, -c beta elsewhere
    if dim == 1:
        kern = np.concatenate([[c * _ktotal_1d(*grid.h, s)], -c * _beta_1d(res - 1, *grid.h, s)])
    else:
        kern = -c * _beta_table_2d(res - 1, *grid.h, s)
        kern[0, 0] = c * _ktotal_2d(*grid.h, s)
    if singular_correction:
        # the curvature stencil is a function of the offset too: 2 coeff at 0
        # and -coeff at +-1 per axis (a neighbour outside the domain is 0)
        for axis, moment in enumerate(_second_moments(dim, grid.h, s)):
            coeff = 0.5 * c * moment / grid.h[axis] ** 2
            kern[(0,) * dim] += 2.0 * coeff
            kern[tuple(np.eye(dim, dtype=int)[axis])] -= coeff
    # mirrored to every signed offset and flattened
    table = kern[np.ix_(*[np.abs(np.arange(1 - res, res))] * dim)].ravel()
    if not np.isfinite(table).all():  # cells too small for the float range
        raise ConfigurationError(f"kernel of cells {grid.h} at order {order} is out of float range")
    return FractionalOperator(grid, order, None, singular_correction, table)
