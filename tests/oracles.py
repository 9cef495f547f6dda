"""Independent reference computations used by the test suite.

Everything here is deliberately written from scratch against closed forms
or elementary iterations, without calling back into the package's solver
pipelines, so it can serve as a second route when checking package output.
Frozen numeric literals were computed once from the formulas below and are
pinned so that later edits to this file cannot silently drift the targets.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.special import gamma

import fraclane.operator

# ---------------------------------------------------------------------------
# frozen reference values

FROZEN = {
    # normalization constant of the integral fractional Laplacian
    "C_1_0.5": 0.3183098861837907,       # = 1/pi
    "C_2_0.5": 0.15915494309189535,      # = 1/(2 pi)
    # C(1, s)/(1 - s) approaches 2 as s -> 1 (local limit)
    "C_ratio_0.99": 1.9632596687581791,
    "C_ratio_0.999": 1.996310560120286,
    # flat-torsion constants kappa(n, s): (-Lap)^s (1-|x|^2)_+^s = kappa on the unit ball
    "kappa_1_0.3": 0.89351534928769,
    "kappa_1_0.5": 1.0,
    "kappa_1_0.7": 1.242169344504306,
    "kappa_2_0.3": 1.220839441965428,
    "kappa_2_0.5": 1.5707963267948966,   # = pi/2
    "kappa_2_0.7": 2.1788357139674233,
    # boundary quotient of sqrt(1-x^2) against dist^(1/2) at x = +-1 is sqrt(2)
    "interval_torsion_edge_quotient": 1.4142135623730951,
}


def normalization_reference(n: int, s: float) -> float:
    """Closed form 2^(2s) s Gamma((n+2s)/2) / (pi^(n/2) Gamma(1-s))."""
    return float(2.0 ** (2 * s) * s * gamma((n + 2 * s) / 2.0)
                 / (np.pi ** (n / 2.0) * gamma(1.0 - s)))


def normalization_constant_quadrature(n: int, s: float) -> float:
    """C(n,s) by adaptive quadrature of the defining integral
    1 / int_{R^n} (1 - cos z_1) / |z|^(n+2s) dz.

    The 1D integral of (1 - cos z)/|z|^(1+2s) is split at |z| = 1: the near
    part is handled by the algebraic-endpoint-weight rule (the integrand is
    z^(1-2s) times a smooth factor), the constant part of the far field is
    exact, and the oscillatory remainder uses the cosine-weighted adaptive
    rule.  The 2D integral reduces exactly to the 1D one after integrating
    the kernel across the second coordinate, which contributes the factor
    int (1+t^2)^(-1-s) dt, itself computed adaptively.
    """
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


def torsion_constant_reference(n: int, s: float) -> float:
    """Closed form 2^(2s) Gamma(1+s) Gamma((n+2s)/2) / Gamma(n/2)."""
    return float(2.0 ** (2 * s) * gamma(1.0 + s) * gamma((n + 2 * s) / 2.0)
                 / gamma(n / 2.0))


def torsion_constant_by_quadrature(n: int, s: float) -> float:
    """Direct numeric evaluation of (-Lap)^s (1-|x|^2)_+^s at the origin.

    Independent of the Gamma closed form: reduces the defining integral to a
    single radial integral (valid in both dimensions because the profile is
    radial) plus the exact tail 1/(2s).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        inner, _ = quad(lambda r: (1.0 - (1.0 - r * r) ** s) * r ** (-1.0 - 2 * s),
                        0.0, 1.0, epsabs=1e-13, epsrel=1e-12, points=[1.0])
    area = 2.0 if n == 1 else 2.0 * np.pi
    return normalization_reference(n, s) * area * (inner + 1.0 / (2.0 * s))


def torsion_solution(x: np.ndarray, n: int, s: float, radius: float = 1.0) -> np.ndarray:
    """Exact solution of (-Lap)^s w = 1 on the centered ball of radius R:
    w(x) = (R^2 - |x|^2)_+^s / kappa(n, s)."""
    x = np.asarray(x, dtype=float)
    r2 = x ** 2 if x.ndim == 1 else np.sum(x ** 2, axis=1)
    prof = np.maximum(radius ** 2 - r2, 0.0) ** s
    return prof / torsion_constant_reference(n, s)


def green_half_interval(x: np.ndarray, y: float) -> np.ndarray:
    """Green function of the half Laplacian on (-1, 1) with zero exterior
    data; infinite on the diagonal x = y."""
    x = np.asarray(x, dtype=float)
    num = 1.0 - x * y + np.sqrt(np.maximum((1.0 - x * x) * (1.0 - y * y), 0.0))
    with np.errstate(divide="ignore"):
        return np.log(num / np.abs(x - y)) / np.pi


def second_difference(u: np.ndarray, h: float) -> np.ndarray:
    """Classical negative 1D Laplacian with zero exterior values."""
    padded = np.concatenate([[0.0], u, [0.0]])
    return (2.0 * padded[1:-1] - padded[:-2] - padded[2:]) / h ** 2


def second_difference_2d(u: np.ndarray, grid) -> np.ndarray:
    """Classical negative 5-point Laplacian on a planar grid, with zero values
    at the lattice nodes outside the domain."""
    full = np.zeros((grid.resolution + 2,) * 2)
    full[tuple(grid.lattice.T + 1)] = u
    inner = full[1:-1, 1:-1]
    out = ((2.0 * inner - full[:-2, 1:-1] - full[2:, 1:-1]) / grid.h[0] ** 2
           + (2.0 * inner - full[1:-1, :-2] - full[1:-1, 2:]) / grid.h[1] ** 2)
    return out[tuple(grid.lattice.T)]


# ---------------------------------------------------------------------------
# operator assembly by offset arrays and per-cell loops (reference for the
# offset-table gather)


def beta_table_2d_by_cell(kx: int, ky: int, h1: float, h2: float, s: float) -> np.ndarray:
    """Gauss-Legendre integrals of |y|^(-2-2s) over each offset cell, one
    cell at a time, the order graded 12/6/4 by the Chebyshev distance."""
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


def cell_mass_by_dblquad(k1: int, k2: int, h1: float, h2: float, s: float) -> float:
    """Integral of |y|^(-2-2s) over the offset cell (k1, k2) != (0, 0) of an
    h1 x h2 lattice, by adaptive `dblquad`; the integrand is smooth there,
    since the cell stays at least half a cell from the origin."""
    value, _ = dblquad(lambda y, x: (x * x + y * y) ** (-1.0 - s),
                       (k1 - 0.5) * h1, (k1 + 0.5) * h1, (k2 - 0.5) * h2, (k2 + 0.5) * h2,
                       epsabs=0.0, epsrel=1e-13)
    return value


def _central_cell_radius(theta: float, h1: float, h2: float) -> float:
    """Distance from the cell center to the boundary of the h1 x h2 cell
    along the direction theta."""
    c, sn = abs(np.cos(theta)), abs(np.sin(theta))
    rx = h1 / (2 * c) if c > 1e-300 else np.inf
    ry = h2 / (2 * sn) if sn > 1e-300 else np.inf
    return min(rx, ry)


def ktotal_2d_by_quad(h1: float, h2: float, s: float) -> float:
    """Kernel mass of |y|^(-2-2s) outside the central h1 x h2 cell by
    adaptive quadrature of the polar integral 4 int_0^(pi/2) R(t)^(-2s)/(2s) dt,
    split at the cell's corner angle."""
    def f(th):
        return _central_cell_radius(th, h1, h2) ** (-2 * s) / (2 * s)

    corner = np.arctan2(h2, h1)
    a, _ = quad(f, 0.0, corner, limit=200, epsabs=1e-13, epsrel=1e-12)
    b, _ = quad(f, corner, np.pi / 2, limit=200, epsabs=1e-13, epsrel=1e-12)
    return 4.0 * (a + b)


def ktotal_2d_by_gauss(h1: float, h2: float, s: float) -> float:
    """The same polar integral by a 120-point Gauss-Legendre rule on each
    side of the corner angle, where the integrand is smooth."""
    gx, gw = leggauss(120)
    corner = np.arctan2(h2, h1)
    total = 0.0
    for lo, hi in ((0.0, corner), (corner, np.pi / 2)):
        th = 0.5 * (hi - lo) * gx + 0.5 * (hi + lo)
        radius = np.array([_central_cell_radius(t, h1, h2) for t in th])
        total += 0.5 * (hi - lo) * float(np.sum(gw * radius ** (-2 * s))) / (2 * s)
    return 4.0 * total


def second_moments_by_quad(h1: float, h2: float, s: float) -> tuple:
    """Integrals of y1^2 |y|^(-2-2s) and y2^2 |y|^(-2-2s) over the central
    h1 x h2 cell by adaptive quadrature of the polar form
    4 int_0^(pi/2) (cos t, sin t)^2 R(t)^(2-2s)/(2-2s) dt, split at the
    cell's corner angle."""
    corner = np.arctan2(h2, h1)
    moments = []
    for trig in (np.cos, np.sin):
        def f(th):
            return trig(th) ** 2 * _central_cell_radius(th, h1, h2) ** (2 - 2 * s) / (2 - 2 * s)
        a, _ = quad(f, 0.0, corner, limit=200, epsabs=0.0, epsrel=1e-13)
        b, _ = quad(f, corner, np.pi / 2, limit=200, epsabs=0.0, epsrel=1e-13)
        moments.append(4.0 * (a + b))
    return tuple(moments)


def add_singular_correction_by_node(matrix: np.ndarray, grid, s: float, c: float) -> None:
    """The central-cell correction node by node, neighbours found by lookup."""
    moments = fraclane.operator._second_moments(grid.dim, grid.h, s)
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


def assembled_matrix(grid, s: float, singular_correction: bool = False) -> np.ndarray:
    """The operator matrix gathered through N x N arrays of lattice offsets:
    a boolean mask over |i - j| in 1D, table[|di|, |dj|] in 2D, with the
    package's kernel masses and normalization constant."""
    op = fraclane.operator
    c = op.normalization_constant(grid.dim, s)
    lat = grid.lattice
    if grid.dim == 1:
        h = grid.h[0]
        beta = op._beta_1d(grid.resolution - 1, h, s)
        diff = np.abs(lat[:, 0][:, None] - lat[:, 0][None, :])
        matrix = np.zeros((grid.n_nodes, grid.n_nodes))
        off = diff > 0
        matrix[off] = -c * beta[diff[off] - 1]
        np.fill_diagonal(matrix, c * op._ktotal_1d(h, s))
    else:
        h1, h2 = grid.h
        table = beta_table_2d_by_cell(grid.resolution - 1, grid.resolution - 1, h1, h2, s)
        d1 = np.abs(lat[:, 0][:, None] - lat[:, 0][None, :])
        d2 = np.abs(lat[:, 1][:, None] - lat[:, 1][None, :])
        matrix = -c * table[d1, d2]
        np.fill_diagonal(matrix, c * op._ktotal_2d(h1, h2, s))
    if singular_correction:
        add_singular_correction_by_node(matrix, grid, s, c)
    return matrix


def folded_matrix(op) -> np.ndarray:
    """S = E^T A E of an operator on a closed grid, folded from whole rows of
    A: every orbit of every representative's row summed, times the
    representative's orbit size, then the upper triangle mirrored."""
    orbit = op.grid.orbit
    order = np.argsort(orbit, kind="stable")
    sizes = np.bincount(orbit)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rep = order[starts]
    folded = np.add.reduceat(op.matrix[np.ix_(rep, order)], starts, axis=1) * sizes[:, None]
    for i in range(len(rep) - 1):
        folded[i + 1:, i] = folded[i, i + 1:]
    return folded


# ---------------------------------------------------------------------------
# reference solvers (oracles for the package's pipelines)


def fixed_point_solution(op, p: float, q: float, tol: float = 1e-13,
                         max_iter: int = 500):
    """Contraction iteration u <- A^-1((A^-1 u^q)^p) for pq < 1, from u = 1.

    Touches only the operator's linear solve, none of the package's descent
    or Newton machinery.
    """
    if p * q >= 1:
        raise ValueError("fixed-point oracle requires pq < 1")
    u = np.ones(op.n_nodes)
    for _ in range(max_iter):
        v = op.solve(np.maximum(u, 0.0) ** q)
        u_new = op.solve(np.maximum(v, 0.0) ** p)
        gap = float(np.max(np.abs(u_new - u)))
        u = u_new
        if gap <= tol * max(1.0, float(np.max(np.abs(u)))):
            break
    v = op.solve(np.maximum(u, 0.0) ** q)
    return u, v


def sublinear_bracket(op, p: float, q: float, max_iter: int = 5000) -> tuple:
    """The order bracket [lo, hi] of the positive fixed point of
    T(u) = A^-1((A^-1 u_+^q)_+^p) for pq < 1, on the grid's nodes, and the
    Thompson distances max|log(hi/lo)| of its iterates.

    T preserves order (A^-1 is entrywise nonnegative) and is homogeneous of
    degree pq.  With w = A^-1 1 and c = (min or max of T(w)/w)^(1/(1-pq)),
    T(c_lo w) >= c_lo w and T(c_hi w) <= c_hi w, so every positive fixed
    point lies in [c_lo w, c_hi w], and T iterated from both ends gives an
    increasing and a decreasing sequence that squeeze it; Thompson's metric
    contracts by pq per step (Krasnosel'skii 1964; Thompson 1963).  The
    iteration stops when the relative width stops shrinking, which at pq
    near 1 happens above 1e-15.  It runs on `op.reduced()`: w is symmetric,
    and so are all the iterates.  Touches only the operator's linear solve.
    """
    pq = p * q
    if pq >= 1:
        raise ValueError("the order bracket requires pq < 1")
    space = op.reduced()

    def t_map(u):
        return space.solve(np.maximum(space.solve(np.maximum(u, 0.0) ** q), 0.0) ** p)

    w = space.solve(np.ones(space.n_nodes))
    ratio = t_map(w) / w
    lo, hi = np.min(ratio) ** (1 / (1 - pq)) * w, np.max(ratio) ** (1 / (1 - pq)) * w
    distances, width = [], np.inf
    for _ in range(max_iter):
        distances.append(float(np.max(np.abs(np.log(hi / lo)))))
        new_width = float(np.max(hi - lo)) / float(np.max(hi))
        if not new_width < width:
            break
        width = new_width
        lo, hi = t_map(lo), t_map(hi)
    return space.expand(lo), space.expand(hi), distances


def descent_solution(op, p: float, q: float, max_iter: int = 200,
                     schedule: tuple = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10),
                     newton_iters: int = 20) -> tuple:
    """Positive (u, v) for pq < 1 by energy descent, finished by dense Newton.

    The descent is the package's former sublinear solver: from u = 1, through
    the smoothing schedule eps, steps along -A^-1 r for the stationarity
    defect r = A sigma_eps(A u) - (u_+)^q, Armijo-backtracked on the
    eps-smoothed energy, max_iter // len(schedule) steps per stage at most;
    a stage ends at |r| <= max(1e-10 op.scale, 0.02 eps) or when no trial
    step decreases the energy.  Undamped Newton steps with the assembled
    2N x 2N Jacobian (`block_newton_step`) then run until the residual is
    below 1e-12 op.scale.  Neither stage shares code with the package's
    fixed-point map or its GMRES Newton.
    """
    if p * q >= 1:
        raise ValueError("descent oracle requires pq < 1")
    w = op.grid.weights

    def sigma(t, eps):
        return (t * t + eps * eps) ** ((1.0 - p) / (2.0 * p)) * t

    u = np.ones(op.n_nodes)
    for eps in schedule:
        tol = max(1e-10 * op.scale, 0.02 * eps)
        au = op.apply(u)
        phi = node_energy(op, u, au, p, q, eps)
        for _ in range(max_iter // len(schedule)):
            r = op.apply(sigma(au, eps)) - np.maximum(u, 0.0) ** q
            if float(np.max(np.abs(r))) <= tol:
                break
            direction = -op.solve(r)
            slope = float(np.dot(w * r, direction))
            ad = op.apply(direction)
            alpha = 1.0
            for _ in range(60):
                au_new = au + alpha * ad
                phi_new = node_energy(op, u + alpha * direction, au_new, p, q, eps)
                if phi_new <= phi + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                break
            u, au, phi = u + alpha * direction, au_new, phi_new
    v = op.solve(np.maximum(u, 0.0) ** q)
    for _ in range(newton_iters):
        residual = max(float(np.max(np.abs(op.apply(u) - np.maximum(v, 0.0) ** p))),
                       float(np.max(np.abs(op.apply(v) - np.maximum(u, 0.0) ** q))))
        if residual <= 1e-12 * op.scale:
            break
        step = block_newton_step(op, u, v, p, q)
        u, v = u + step[:op.n_nodes], v + step[op.n_nodes:]
    return u, v


def scalar_branch(op, p: float, power_iters: int = 40, newton_iters: int = 100,
                  tol_factor: float = 1e-11) -> np.ndarray:
    """Positive solution of the single equation A u = u^p for p > 1.

    Inverse power iteration finds the ground direction, a weighted Rayleigh
    quotient sets the amplitude, and a step-capped Newton iteration finishes.
    For p = q the system pair is (u, u), which makes this an independent
    check of the path-deformation solver.
    """
    if p <= 1:
        raise ValueError("scalar branch oracle requires p > 1")
    phi = np.ones(op.n_nodes)
    for _ in range(power_iters):
        phi = op.solve(phi)
        phi /= float(np.max(np.abs(phi)))
    w = op.grid.weights
    num = float(w @ (phi * op.apply(phi)))
    den = float(w @ (np.maximum(phi, 0.0) ** (p + 1.0)))
    u = (num / den) ** (1.0 / (p - 1.0)) * phi
    tol = tol_factor * max(1.0, float(np.max(np.abs(op.apply(u)))))
    for _ in range(newton_iters):
        up = np.maximum(u, 0.0)
        resid = op.apply(u) - up ** p
        if float(np.max(np.abs(resid))) <= tol:
            break
        jac = op.matrix - np.diag(p * up ** (p - 1.0))
        step = np.linalg.solve(jac, resid)
        cap = 0.5 * max(float(np.max(np.abs(u))), 1e-12)
        size = float(np.max(np.abs(step)))
        if size > cap:
            step *= cap / size
        u = u - step
    return u


def block_newton_step(op, u: np.ndarray, v: np.ndarray, p: float, q: float) -> np.ndarray:
    """The Newton step (s_u, s_v) of A u = (v_+)^p, A v = (u_+)^q by a dense
    solve with the assembled 2N x 2N Jacobian [[A, -D_v], [-D_u, A]], the
    derivatives taken one-sided (0 where the argument is not positive)."""
    def derivative(x, e):
        d = np.zeros_like(x)
        d[x > 0] = e * x[x > 0] ** (e - 1.0)
        return d

    f = np.concatenate([op.apply(u) - np.maximum(v, 0.0) ** p,
                        op.apply(v) - np.maximum(u, 0.0) ** q])
    jac = np.block([
        [op.matrix, -np.diag(derivative(v, p))],
        [-np.diag(derivative(u, q)), op.matrix],
    ])
    return np.linalg.solve(jac, -f)


# ---------------------------------------------------------------------------
# node-by-node mountain-pass path steps (reference for the array form)


def node_energy(op, u: np.ndarray, au: np.ndarray, p: float, q: float,
                eps: float) -> float:
    """The eps-smoothed functional at one node, summed as a 1-D array."""
    w = op.grid.weights
    expo = (p + 1.0) / (2.0 * p)
    if eps == 0.0:
        density = np.abs(au) ** (2.0 * expo)
    else:
        density = (au * au + eps * eps) ** expo - eps ** (2.0 * expo)
    kinetic = p / (p + 1.0) * float(np.sum(w * density))
    potential = float(np.sum(w * np.maximum(u, 0.0) ** (q + 1.0))) / (q + 1.0)
    return kinetic - potential


def path_max_by_node(op, path: list, p: float, q: float, eps: float) -> tuple:
    """(index, energy, A node) of the maximal-energy interior node, one
    matvec and one energy per node."""
    products = [op.apply(node) for node in path[1:-1]]
    energies = [node_energy(op, node, an, p, q, eps)
                for node, an in zip(path[1:-1], products)]
    k = int(np.argmax(energies))
    return 1 + k, energies[k], products[k]


def resample_path_by_node(path: list) -> list:
    """Uniform arclength re-parametrization, one target node at a time."""
    m = len(path) - 1
    pts = np.stack(path)
    seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    total = float(np.sum(seg))
    if total <= 0.0:
        return path
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, m + 1)
    out = [path[0]]
    for t in targets[1:-1]:
        i = min(int(np.searchsorted(cum, t, side="right")) - 1, m - 1)
        frac = (t - cum[i]) / max(seg[i], 1e-300)
        out.append(pts[i] + frac * (pts[i + 1] - pts[i]))
    out.append(path[m])
    return out


# ---------------------------------------------------------------------------
# boundary fits sampled one ray at a time (reference for the array form)


def _box_values(grid, u: np.ndarray) -> np.ndarray:
    """Grid function extended by zero to the full bounding-box lattice."""
    full = np.zeros((grid.resolution,) * grid.dim)
    full[tuple(grid.lattice.T)] = u
    return full


def _interp1(grid, full: np.ndarray, xs: np.ndarray) -> np.ndarray:
    (lo, _), = grid.domain.bounding_box
    t = (xs - lo) / grid.h[0] - 0.5
    i0 = np.floor(t).astype(int)
    frac = t - i0

    def val(idx):
        v = np.zeros_like(xs)
        ok = (idx >= 0) & (idx < grid.resolution)
        v[ok] = full[idx[ok]]
        return v

    return (1 - frac) * val(i0) + frac * val(i0 + 1)


def _interp2(grid, full: np.ndarray, pts: np.ndarray) -> np.ndarray:
    box = grid.domain.bounding_box
    res = grid.resolution
    t1 = (pts[:, 0] - box[0][0]) / grid.h[0] - 0.5
    t2 = (pts[:, 1] - box[1][0]) / grid.h[1] - 0.5
    i0 = np.floor(t1).astype(int)
    j0 = np.floor(t2).astype(int)
    f1 = t1 - i0
    f2 = t2 - j0

    def val(ii, jj):
        v = np.zeros(pts.shape[0])
        ok = (ii >= 0) & (ii < res) & (jj >= 0) & (jj < res)
        v[ok] = full[ii[ok], jj[ok]]
        return v

    return ((1 - f1) * (1 - f2) * val(i0, j0) + f1 * (1 - f2) * val(i0 + 1, j0)
            + (1 - f1) * f2 * val(i0, j0 + 1) + f1 * f2 * val(i0 + 1, j0 + 1))


def _fits_by_ray(u, grid, trace, window, fit) -> tuple:
    """(values, ok, window): each ray sampled at (k-1/2)*h_ray, k in the
    window, and fitted on its positive samples when it has at least 4."""
    full = _box_values(grid, u)
    h_ray = min(grid.h)
    dist = (np.arange(window[0], window[1] + 1) - 0.5) * h_ray
    values = np.full(len(trace.weights), np.nan)
    ok = np.zeros(len(trace.weights), dtype=bool)
    for b in range(len(trace.weights)):
        pts = trace.points[b][None, :] - dist[:, None] * trace.normals[b][None, :]
        vals = _interp1(grid, full, pts[:, 0]) if grid.dim == 1 else _interp2(grid, full, pts)
        usable = vals > 0
        if int(np.sum(usable)) < 4:
            continue
        values[b] = fit(dist[usable], vals[usable], h_ray)
        ok[b] = True
    return values, ok, window


def boundary_quotient_by_ray(u, grid, trace, s: float) -> tuple:
    """Per-ray least squares of log u - s log d on {1, d, (d/h)^-(2-2s)}
    over k in [2, max(12, 1.2 sqrt(resolution))]."""
    def fit(d, vals, h_ray):
        y = np.log(vals) - s * np.log(d)
        design = np.stack([np.ones(len(d)), d, (d / h_ray) ** (-(2.0 - 2.0 * s))], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return float(np.exp(coef[0]))

    window = (2, max(12, round(1.2 * np.sqrt(grid.resolution))))
    return _fits_by_ray(u, grid, trace, window, fit)


def boundary_exponent_by_ray(u, grid, trace) -> tuple:
    """Per-ray log-log slope over k in [k0, 2 k0], k0 = max(3, 0.4 sqrt(resolution))."""
    k0 = max(3, round(0.4 * np.sqrt(grid.resolution)))
    return _fits_by_ray(u, grid, trace, (k0, 2 * k0),
                        lambda d, vals, _: float(np.polyfit(np.log(d), np.log(vals), 1)[0]))
