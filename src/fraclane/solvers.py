"""Solvers for the coupled power system  A u = (v_+)^p,  A v = (u_+)^q.

Three layers:

* minimize_sublinear — for pq < 1, the fixed-point map
  u <- A^{-1}((A^{-1} u_+^q)_+^p), which preserves order (A^{-1} is
  entrywise nonnegative) and contracts with constant pq in Thompson's
  metric, so the unique positive solution is its limit from any positive
  start; handed to Newton as soon as a trial Newton run contracts through
  positive iterates.
* mountain_pass — for pq > 1, where 0 is a local minimum and a subcritical
  solution is a saddle: deform a discretized path from 0 to a low-energy
  state until its maximal node is in Newton's basin, tested by the same
  trial Newton runs (none in the critical and supercritical regimes).
* newton_polish — undamped Newton with a step cap on the coupled system,
  its step solved by GMRES, used as the finishing stage by both pipelines
  and usable on its own.

solve_system picks the pipeline by regime; in the superlinear subcritical
regime it first solves on the grid of half the resolution and starts
Newton from that solution, interpolated (see `_coarse_to_fine`).

Positivity is never enforced by projection; it must emerge from the
discrete maximum principle and is then asserted on the accepted pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.linalg import solve_triangular

from .domains import Grid, build_grid, interpolate
from .energy import (
    EnergyReport,
    ExponentPair,
    energy,
    energy_gradient,
    energy_value,
    euler_lagrange_residual,  # noqa: F401  (perfbench traces it here)
    smoothed_power,
)
from .errors import ConfigurationError, NonconvergenceError, ResonantProblemError
from .operator import FractionalOperator, assemble

__all__ = [
    "SolverConfig",
    "SolutionPair",
    "initial_guess",
    "recover_v",
    "newton_polish",
    "minimize_sublinear",
    "mountain_pass",
    "solve_system",
    "nonresonant_regime",
]


ARMIJO = 1e-4            # sufficient-decrease constant
PATH_NODES = 20          # mountain-pass path segments
MP_SMOOTHING = 1e-6      # smoothing used during path deformation
MP_STEP_FRACTION = 0.25  # per-sweep cap on the deformed node's move
COLLAPSE_FRACTION = 1e-6  # a Newton run below this fraction of its scale collapsed to 0
MAX_RESTARTS = 3         # mountain-pass collapse restarts
KRYLOV_MAX_ITER = 60     # GMRES budget of one Newton step
KRYLOV_RTOL = 1e-12      # GMRES tolerance, relative to the step's right-hand side
FORCING_MAX = 1e-2       # cap of the forcing term of a monotone (trial) Newton run
NEWTON_MAX_ITER = 150    # Newton steps of one polish
NEWTON_STEP_CAP = 0.5    # Newton step cap as a fraction of the current sup-norm
COARSE_FLOOR = 16        # coarsest resolution of a coarse-to-fine solve
INITS = ("bump", "random")  # starts of the sublinear fixed-point map


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the solver pipelines.  A fixed config (seed included) makes
    every run bitwise deterministic; a setting out of range raises
    ConfigurationError."""

    max_iter: int = 2000                 # ceiling on the sublinear fixed-point steps
    residual_tol: float = 1e-8           # equation-residual acceptance threshold
    seed: int = 0
    init: str = "bump"                   # bump | random
    mp_sweeps: int = 300                 # mountain-pass sweeps: a ceiling when subcritical
    smoothing_schedule: ClassVar[tuple] = ()  # not a field; read only by perfbench/spans.py

    def __post_init__(self):
        if not 0 < self.residual_tol < math.inf:
            raise ConfigurationError(f"residual_tol must be positive and finite, "
                                     f"got {self.residual_tol}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        for key in ("max_iter", "mp_sweeps"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.init not in INITS:
            raise ConfigurationError(
                f"unknown init {self.init!r} (CLI supports {'|'.join(INITS)})")


@dataclass(frozen=True)
class SolutionPair:
    """A computed (u, v) candidate with its diagnostics; `accepted`, converged
    to a strictly positive pair, is the one acceptance rule."""

    u: np.ndarray
    v: np.ndarray
    residual_u: float
    residual_v: float
    energy: EnergyReport
    method: str
    iterations: int
    trace: list = field(default_factory=list, repr=False)
    message: str = ""  # why the run stopped short; empty when it converged
    symmetry: dict | None = None  # the reduced operator's `symmetry`; None in the full space

    @property
    def converged(self) -> bool:
        return not self.message

    @property
    def min_u(self) -> float:
        return float(np.min(self.u))

    @property
    def min_v(self) -> float:
        return float(np.min(self.v))

    @property
    def accepted(self) -> bool:
        return self.converged and self.min_u > 0.0 and self.min_v > 0.0


def nonresonant_regime(exps: ExponentPair, n: int, s) -> str:
    """`exps.regime(n, s)`, with resonant exponents rejected by
    ResonantProblemError: the one rejection of the solvers and the CLI,
    which calls it before it builds an operator."""
    regime = exps.regime(n, s)
    if regime == "resonant":
        raise ResonantProblemError(
            "p*q = 1 is resonant (eigenvalue problem); rejected before solving")
    return regime


def initial_guess(grid: Grid, cfg: SolverConfig) -> np.ndarray:
    """Starting state: 'bump' is a paraboloid cap centered in the domain with
    unit sup-norm; 'random' is seeded uniform in [0.1, 1)."""
    if cfg.init == "bump":
        center = np.asarray(grid.domain.center)
        box = grid.domain.bounding_box
        radius = min((hi - lo) for lo, hi in box) / 2.0
        r2 = np.sum((grid.x - center) ** 2, axis=1)
        u = np.maximum(0.0, 1.0 - r2 / radius**2)
        peak = np.max(u)
        if peak <= 0:
            raise ConfigurationError("bump initial guess vanished on the grid")
        return u / peak
    return np.random.default_rng(cfg.seed).uniform(0.1, 1.0, grid.n_nodes)


def recover_v(op: FractionalOperator, u: np.ndarray, q: float) -> np.ndarray:
    """Partner function: the linear solve A v = (u_+)^q."""
    return op.solve(np.maximum(u, 0.0) ** float(q))


# ---------------------------------------------------------------------------
# Newton polish on the coupled system


def _power_derivative(x: np.ndarray, e: float) -> np.ndarray:
    """One-sided derivative of x_+^e: e x^(e-1) where x > 0, and 0 elsewhere.

    For e < 1 the two-sided formula is infinite at x = 0; the zero branch
    keeps the Jacobian finite there."""
    with np.errstate(divide="ignore"):
        full = e * np.maximum(x, 0.0) ** (e - 1.0)
    return np.where(x > 0.0, full, 0.0)


def _gmres(matvec, b: np.ndarray, rtol: float) -> tuple:
    """Unrestarted GMRES for M x = b from x = 0: (x, Arnoldi steps taken).

    The Krylov basis is built by classical Gram-Schmidt applied twice (CGS2)
    in a preallocated (KRYLOV_MAX_ITER + 1, N) array, and the Hessenberg
    columns are reduced by Givens rotations on Python floats.  x is None on
    breakdown (a zero Krylov vector before the residual is below rtol |b|)
    and when the budget runs out.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    basis = np.empty((KRYLOV_MAX_ITER + 1, b.size))
    np.divide(b, beta, out=basis[0])
    hess = np.zeros((KRYLOV_MAX_ITER, KRYLOV_MAX_ITER))  # Hessenberg columns, rotated
    rotations, g = [], [beta]
    for k in range(KRYLOV_MAX_ITER):
        w = matvec(basis[k])
        q = basis[:k + 1]
        h = q @ w
        w -= h @ q
        h2 = q @ w
        w -= h2 @ q
        col, sub = (h + h2).tolist(), float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        r = math.hypot(col[k], sub)
        if r == 0.0:
            return None, k + 1
        rotations.append((col[k] / r, sub / r))
        col[k] = r
        hess[:k + 1, k] = col
        g.append(-sub / r * g[k])
        g[k] *= rotations[-1][0]
        if abs(g[k + 1]) <= rtol * beta:
            return solve_triangular(hess[:k + 1, :k + 1], g[:k + 1]) @ q, k + 1
        np.divide(w, sub, out=basis[k + 1])
    return None, KRYLOV_MAX_ITER


def newton_polish(op: FractionalOperator, u: np.ndarray, v: np.ndarray,
                  exps: ExponentPair, cfg: SolverConfig = SolverConfig(),
                  *, _monotone: bool = False) -> SolutionPair:
    """Newton iteration on F(u,v) = (A u - (v_+)^p, A v - (u_+)^q).

    The step of the Jacobian [[A, -D_v], [-D_u, A]] (D_v = diag p v_+^(p-1),
    D_u = diag q u_+^(q-1)) is eliminated to its v half,

        (I - A^{-1} D_u A^{-1} D_v) s_v = A^{-1} (-f_v - D_u A^{-1} f_u),
        s_u = A^{-1} D_v s_v - A^{-1} f_u,

    and the reduced system, the identity plus a compact operator, is solved
    by GMRES in a number of iterations that hardly depends on the mesh.
    Each GMRES iteration costs two `op.solve` calls; no N x N array is
    formed, and Newton reads only `op.apply` and `op.solve`.  The GMRES
    tolerance is the fixed KRYLOV_RTOL except in a monotone run (below).
    A GMRES breakdown or an exhausted Krylov budget is reported as a
    singular Jacobian.  Each "newton" trace entry carries the GMRES
    tolerance ("rtol") and iteration count ("krylov", 0 when no step is
    taken) of the step taken from it.

    Steps are capped at a fraction of the current sup-norm instead of being
    damped by a residual-decrease rule: near the saddle points of this
    system the Jacobian is indefinite and residual-monotone damping stalls,
    while capped full steps retain quadratic convergence once inside the
    basin.  Stops at a rounding-floor tolerance well below residual_tol or
    after NEWTON_MAX_ITER steps.  Each iterate costs two matvecs, A u and
    A v, which also give the floor and the returned residuals and energy;
    an empty message means the pair converged.

    `_monotone` turns the iteration into the contraction test of the
    solvers' Newton trials: it stops, unconverged, at the first iterate
    that is not strictly positive or whose residual is not below the
    previous one.  Its GMRES tolerance is max(KRYLOV_RTOL, eta_k), an
    Eisenstat-Walker forcing term (SIAM J. Sci. Comput. 17, 1996, choice 2):
    eta_0 = FORCING_MAX, then eta_k = min(FORCING_MAX, 0.9 (r_k/r_(k-1))^2)
    for the sup-norm residuals r.  Plain runs, the critical and
    supercritical diagnostics among them, keep KRYLOV_RTOL: a looser one
    moves those diagnostics to other outcomes.  A start that is not
    finite raises NonconvergenceError.
    """
    nonresonant_regime(exps, op.n, op.s)
    p, q = exps.pf, exps.qf
    u = np.asarray(u, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NonconvergenceError("Newton start is not finite (inf or nan in u or v)")
    trace = []
    res = np.inf
    for it in range(NEWTON_MAX_ITER + 1):
        au, av = op.apply(u), op.apply(v)
        f_u, f_v = au - np.maximum(v, 0.0) ** p, av - np.maximum(u, 0.0) ** q
        ru, rv = float(np.max(np.abs(f_u))), float(np.max(np.abs(f_v)))
        res, previous = max(ru, rv), res
        if it == 0:
            floor = 1e-11 * max(1.0, float(np.max(np.abs(au))), float(np.max(np.abs(av))))
            tol = min(max(cfg.residual_tol * 1e-3, floor), cfg.residual_tol)
        if it == NEWTON_MAX_ITER:  # the last step's result is evaluated, not tested
            message = f"Newton budget exhausted at residual {previous:.3e}"
            break
        eta = min(FORCING_MAX, 0.9 * (res / previous) ** 2) if it else FORCING_MAX
        rtol = max(KRYLOV_RTOL, eta) if _monotone else KRYLOV_RTOL
        entry = {"stage": "newton", "iter": it, "residual": res, "krylov": 0, "rtol": rtol}
        trace.append(entry)
        message = ""
        if _monotone and not (np.min(u) > 0.0 and np.min(v) > 0.0):
            message = f"lost positivity at iteration {it}"
        elif _monotone and not res < previous:
            message = f"no contraction at iteration {it}"
        if message or res <= tol:
            break
        du, dv = _power_derivative(u, q), _power_derivative(v, p)
        ainv_fu = op.solve(f_u)
        # in x = root s_v, GMRES's inner product is that of the grid's nodes
        root = np.sqrt(op.grid.multiplicity)
        step_v, entry["krylov"] = _gmres(
            lambda x: x - root * op.solve(du * op.solve(dv * (x / root))),
            root * op.solve(-f_v - du * ainv_fu), rtol)
        if step_v is None:
            message = f"singular Jacobian at iteration {it}"
            break
        step_v = step_v / root
        step_u = op.solve(dv * step_v) - ainv_fu
        cap = NEWTON_STEP_CAP * max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1e-12)
        step_sup = max(float(np.max(np.abs(step_u))), float(np.max(np.abs(step_v))))
        scale = min(1.0, cap / max(step_sup, 1e-300))
        u += scale * step_u
        v += scale * step_v
    return SolutionPair(u, v, ru, rv, energy(op, u, exps, smoothing=0.0, au=au),
                        "newton_polish", it, trace, message)


def _collapsed(pair: SolutionPair, scale: float) -> bool:
    """True unless `pair` is accepted with sup|u| above COLLAPSE_FRACTION * `scale`."""
    return not pair.accepted or float(np.max(np.abs(pair.u))) <= COLLAPSE_FRACTION * scale


def _newton_trial(op: FractionalOperator, u: np.ndarray, v: np.ndarray, exps: ExponentPair,
                  cfg: SolverConfig, scale: float, entry: dict) -> SolutionPair | None:
    """A monotone Newton run from (u, v) unless it collapses at `scale`,
    else None.  A converged run stops at a tolerance of at most
    `cfg.residual_tol`, so a trial that does not collapse is accepted.  The
    trace `entry` gets its "outcome" ("accepted" or the reason for
    rejection) and its Newton and GMRES iteration counts ("newton_iters",
    "krylov")."""
    trial = newton_polish(op, u, v, exps, cfg, _monotone=True)
    collapsed = _collapsed(trial, scale)
    outcome = ((trial.message or "collapsed to a vanishing or non-positive state")
               if collapsed else "accepted")
    entry.update(outcome=outcome, newton_iters=trial.iterations,
                 krylov=sum(e["krylov"] for e in trial.trace))
    return None if collapsed else trial


def _checkpoint(steps: int) -> bool:
    """True after 5, 10, 20, 40, ... steps of a solver loop: 5 * 2^k."""
    return steps >= 5 and steps % 5 == 0 and (steps // 5) & (steps // 5 - 1) == 0


def _handoff(op: FractionalOperator, exps: ExponentPair, cfg: SolverConfig, trace: list,
             steps: int, u: np.ndarray, progress: dict, scale: float = 0.0):
    """The `_newton_trial` from copies of (u, recover_v(u)) after `steps` steps
    of a solver loop, at a `_checkpoint`: the accepted pair, else None.  It
    is a "newton_handoff" trace entry with the caller's `progress` measures."""
    entry = {"stage": "newton_handoff", "iter": steps, **progress}
    trace.append(entry)
    return _newton_trial(op, u, recover_v(op, u, exps.qf), exps, cfg, scale, entry)


# ---------------------------------------------------------------------------
# fixed-point iteration (pq < 1)


def minimize_sublinear(op: FractionalOperator, exps: ExponentPair,
                       cfg: SolverConfig = SolverConfig()) -> SolutionPair:
    """The positive solution for pq < 1 by the fixed-point map
    T(u) = A^{-1}((A^{-1} u_+^q)_+^p), handed to Newton as soon as a trial
    Newton run contracts.

    A^{-1} is entrywise nonnegative (the discrete maximum principle), so T
    preserves order, and T is homogeneous of degree pq < 1; it therefore
    contracts with constant pq in Thompson's metric max |log(u/w)| on the
    positive cone (Krasnosel'skii 1964), from any positive start.  A step
    costs two `op.solve` calls and evaluates no energy.  Each step is a
    "fixed_point" trace entry with its sup-norm increment and its Thompson
    distance to the previous iterate (inf off the positive cone).

    After 5, 10, 20, 40, ... steps (`_checkpoint`) a Newton trial starts
    from (u, recover_v(u)) (see `_handoff`); a rejected trial lets the
    iteration resume where it was.  The iteration stops once the increment
    reaches the rounding floor, and `max_iter` caps the steps; then the plain
    capped Newton iteration polishes.  Positivity is asserted, not enforced.
    """
    if nonresonant_regime(exps, op.n, op.s) != "sublinear":
        raise ConfigurationError("minimize_sublinear requires p*q < 1; use mountain_pass")
    p, q = exps.pf, exps.qf
    u = initial_guess(op.grid, cfg)
    trace = []
    steps = 0
    while steps < cfg.max_iter:
        new = op.solve(np.maximum(recover_v(op, u, q), 0.0) ** p)
        increment = float(np.max(np.abs(new - u)))
        thompson = (float(np.max(np.abs(np.log(new / u))))
                    if np.min(u) > 0.0 and np.min(new) > 0.0 else math.inf)
        u, steps = new, steps + 1
        trace.append({"stage": "fixed_point", "iter": steps, "increment": increment,
                      "thompson": thompson})
        if _checkpoint(steps):
            trial = _handoff(op, exps, cfg, trace, steps, u, {"increment": increment})
            if trial is not None:
                return _finish(trial, "minimize_sublinear", trace, steps)
        if increment <= 1e-15 * float(np.max(np.abs(u))):
            break
    polished = newton_polish(op, u, recover_v(op, u, q), exps, cfg)
    return _finish(polished, "minimize_sublinear", trace, steps)


def _finish(polished: SolutionPair, method: str, trace: list, steps: int) -> SolutionPair:
    """The solver's result from its Newton polish, after `steps` outer steps;
    NonconvergenceError unless it is accepted."""
    result = replace(polished, method=method, trace=trace + polished.trace,
                     iterations=steps + polished.iterations)
    if result.accepted:
        return result
    if not result.converged:
        reason = (f"solver finished without meeting the residual tolerance (residuals "
                  f"{result.residual_u:.3e}, {result.residual_v:.3e}): {result.message}")
    else:
        reason = (f"converged to a non-positive pair (min u = {result.min_u:.3e}, "
                  f"min v = {result.min_v:.3e}); no positive solution found from this start")
    raise NonconvergenceError(reason, trace=result.trace)


# ---------------------------------------------------------------------------
# mountain pass (pq > 1, subcritical)


def _resample_path(path: np.ndarray, mult=1.0) -> np.ndarray:
    """Re-parametrize the piecewise-linear path (a node per row) uniformly by
    arclength, in the norm weighted by the grid's multiplicities `mult`.

    Keeps the path a connected curve while individual nodes are deformed;
    without it the deformed node slides off the ridge into the zero basin.
    """
    m = len(path) - 1
    diff = path[1:] - path[:-1]
    seg = np.sqrt(np.sum(mult * diff ** 2, axis=1))
    total = float(np.sum(seg))
    if total <= 0.0:
        return path
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(1.0, m) * (total / m)  # np.linspace(0, total, m + 1)[1:-1]
    i = np.minimum(np.searchsorted(cum, targets, side="right") - 1, m - 1)
    frac = (targets - cum[i]) / np.maximum(seg[i], 1e-300)
    out = path.copy()
    out[1:-1] = path[i] + frac[:, None] * diff[i]
    return out


def _path_max(op: FractionalOperator, path: np.ndarray, exps: ExponentPair, eps: float) -> tuple:
    """The maximal-energy interior node of the path: (index, energy, A node).

    The endpoints are fixed and never the maximum, so their energies are not
    evaluated."""
    products = op.apply(path[1:-1])
    energies = energy_value(op, path[1:-1], exps, eps, au=products)
    k = int(np.argmax(energies))
    return 1 + k, float(energies[k]), products[k]


def mountain_pass(op: FractionalOperator, exps: ExponentPair,
                  cfg: SolverConfig = SolverConfig()) -> SolutionPair:
    """Path-deformation solver for pq > 1.

    Endpoints are 0 and t * bump with the energy at t * bump pushed below 0
    by doubling t.  The path is an (m+1) x N array, a node per row.  Each
    sweep takes one stacked matvec and one batched energy over the interior
    rows, one capped Armijo step on the maximal-energy node, and re-samples
    the path by arclength; each element sees the floating-point operations
    of a node-by-node loop, so the path is the same bit for bit.

    In the subcritical regime the path only has to reach the saddle's Newton
    basin: after 5, 10, 20, ... sweeps of each attempt (`_checkpoint`) a
    `_handoff` trial starts from the ridge node, so `mp_sweeps` is a
    ceiling.  When the budget runs out, or when 40 halvings of a sweep's
    Armijo step find no decrease (a "line_search" trace entry; the path
    keeps no step), the ridge node seeds a Newton polish; a polish that
    collapses to zero or to a non-positive pair triggers a restart with t
    and the budget doubled.

    In the critical and supercritical regimes the run is a diagnostic
    (expected outcome: nonconvergence) and makes no trials, so an early
    Newton convergence cannot pose as a solution.
    """
    regime = nonresonant_regime(exps, op.n, op.s)
    if regime == "sublinear":
        raise ConfigurationError("mountain_pass requires p*q > 1; use minimize_sublinear")
    eps = MP_SMOOTHING
    bump = initial_guess(op.grid, replace(cfg, init="bump"))
    t = 1.0
    doublings = 0
    while energy_value(op, t * bump, exps, eps) >= 0.0:
        t *= 2.0
        doublings += 1
        if doublings > 60:
            raise NonconvergenceError("could not push the path endpoint below zero energy")
    trace = []
    sweeps_budget = cfg.mp_sweeps
    sweeps_run = 0
    m = PATH_NODES
    for restart in range(MAX_RESTARTS + 1):
        path = (np.arange(m + 1) / m * t)[:, None] * bump
        ran = sweeps_budget
        for sweep in range(sweeps_budget):
            j, phi0, a_ridge = _path_max(op, path, exps, eps)
            ridge = path[j]
            g = energy_gradient(op, ridge, exps, eps, au=a_ridge)
            defect = g / op.grid.weights
            if regime == "superlinear_subcritical" and _checkpoint(sweep):
                trial = _handoff(op, exps, cfg, trace, sweep, ridge,
                                 {"energy": phi0, "stationarity": float(np.max(np.abs(defect)))},
                                 scale=t)
                if trial is not None:
                    return _finish(trial, "mountain_pass", trace, sweeps_run + sweep)
            # preconditioned by A^{-1}: A is SPD, and this removes its stiffness
            direction = -op.solve(defect)
            cap = MP_STEP_FRACTION * max(float(np.max(np.abs(ridge))), 1e-3 * t)
            alpha = min(1.0, cap / max(float(np.max(np.abs(direction))), 1e-300))
            slope = float(np.dot(g, direction))
            for _ in range(40):
                candidate = ridge + alpha * direction
                if energy_value(op, candidate, exps, eps) <= phi0 + ARMIJO * alpha * slope:
                    break
                alpha *= 0.5
            else:  # no step lowers the energy: the attempt ends at this ridge
                trace.append({"stage": "line_search", "iter": sweep, "energy": phi0,
                              "outcome": "no decrease after 40 halvings"})
                ran = sweep + 1
                break
            path[j] = candidate
            path = _resample_path(path, op.grid.multiplicity)
            if sweep % 25 == 0:
                trace.append({"stage": f"mountain_pass_restart{restart}", "iter": sweep,
                              "energy": phi0, "stationarity": float(np.max(np.abs(defect)))})
        sweeps_run += ran
        j, _, a_ridge = _path_max(op, path, exps, eps)
        ridge = path[j].copy()
        v0 = np.maximum(smoothed_power(a_ridge, eps, exps.pf), 0.0)
        polished = newton_polish(op, ridge, v0, exps, cfg)
        if not _collapsed(polished, t):
            return _finish(polished, "mountain_pass", trace, sweeps_run)
        t *= 2.0
        sweeps_budget *= 2
        trace.append({"stage": f"mountain_pass_restart{restart}", "iter": -1,
                      "energy": float("nan"), "stationarity": float("nan")})
    raise NonconvergenceError(
        f"mountain pass failed after {MAX_RESTARTS + 1} attempts "
        f"(last polish: {polished.message or 'collapsed to a non-positive state'})",
        trace=trace,
    )


def _coarse_to_fine(space: FractionalOperator, exps: ExponentPair,
                    cfg: SolverConfig) -> SolutionPair:
    """The pair on `space` of one coarse-to-fine level, else the plain
    mountain pass on `space`; a "coarse_to_fine" trace entry (its "n_nodes"
    counts the grid's nodes) leads either trace.

    A recursive `solve_system` call solves the problem on the grid of half
    the resolution, with the operator assembled as `space` was; the coarse
    u and v, interpolated to the nodes of `space`, start a monotone Newton
    run there.  By Newton's mesh independence that start lies in the fine
    grid's quadratic basin.  `_newton_trial` judges the run at the scale of
    the start's sup-norm; when it is rejected, or the coarse level fails, the mountain pass runs on `space`.
    """
    grid = space.grid
    entry = {"stage": "coarse_to_fine", "resolution": grid.resolution,
             "n_nodes": int(np.sum(grid.multiplicity)), "outcome": "",
             "newton_iters": 0, "krylov": 0}
    try:
        coarse_grid = build_grid(grid.domain, grid.resolution // 2)
        coarse = solve_system(assemble(coarse_grid, space.s, space.singular_correction), exps, cfg)
    except (NonconvergenceError, ConfigurationError) as exc:
        entry["outcome"] = f"coarse level failed: {exc}"
    else:
        u0, v0 = (interpolate(coarse_grid, w, grid.x) for w in (coarse.u, coarse.v))
        trial = _newton_trial(space, u0, v0, exps, cfg, float(np.max(np.abs(u0))), entry)
        if trial is not None:
            return _finish(trial, "mountain_pass", coarse.trace + [entry], coarse.iterations)
    fallback = mountain_pass(space, exps, cfg)
    return replace(fallback, trace=[entry] + fallback.trace)


def solve_system(op: FractionalOperator, exps: ExponentPair,
                 cfg: SolverConfig = SolverConfig()) -> SolutionPair:
    """Run the pipeline of the regime: sublinear -> fixed-point map, superlinear
    subcritical -> mountain pass, resonant -> rejected.  In the critical and
    supercritical regimes (where no positive solution exists on star-shaped
    domains) the mountain pass runs as a diagnostic and its nonconvergence
    is the expected, reported outcome.

    In the superlinear subcritical regime, when half the resolution is at
    least COARSE_FLOOR, `_coarse_to_fine` runs, one trace entry per level;
    nothing is cached between calls.  Superlinear runs start from the bump
    whatever `cfg.init` says.

    The space is chosen once: from the bump, a symmetric start, every stage
    runs on `op.reduced()`, op itself where there is nothing to reduce.  The
    sublinear solution is unique and the subcritical one is reached by
    equivariant steps, so both are symmetric.
    The pair returns on the grid's nodes with the space's `symmetry`.  A
    sublinear `random` start and the critical and supercritical diagnostics
    (their outcome turns on rounding) run on op.
    """
    regime = nonresonant_regime(exps, op.n, op.s)
    symmetric = (regime == "superlinear_subcritical"
                 or (regime == "sublinear" and cfg.init == "bump"))
    space = op.reduced() if symmetric else op
    if regime == "sublinear":
        pair = minimize_sublinear(space, exps, cfg)
    elif regime == "superlinear_subcritical" and space.grid.resolution // 2 >= COARSE_FLOOR:
        pair = _coarse_to_fine(space, exps, cfg)
    else:
        pair = mountain_pass(space, exps, cfg)
    return replace(pair, u=space.expand(pair.u), v=space.expand(pair.v), symmetry=space.symmetry)
