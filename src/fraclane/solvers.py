"""Solvers for the coupled power system  A u = (v_+)^p,  A v = (u_+)^q.

Three layers:

* minimize_sublinear — preconditioned descent on the scalar energy with a
  smoothing continuation, for pq < 1 where the energy is bounded below and
  the positive solution is the global minimizer; handed to Newton as soon
  as a trial Newton run contracts through positive iterates.
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

import numpy as np
from scipy.linalg import solve_triangular

from .domains import Grid, build_grid, interpolate
from .energy import (
    EnergyReport,
    ExponentPair,
    energy,
    energy_gradient,
    energy_value,
    euler_lagrange_residual,
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
]


GRADIENT_TOL = 1e-10     # descent stationarity target, relative to operator scale
ARMIJO = 1e-4            # sufficient-decrease constant
PATH_NODES = 20          # mountain-pass path segments
MP_SMOOTHING = 1e-6      # smoothing used during path deformation
MP_STEP_FRACTION = 0.25  # per-sweep cap on the deformed node's move
MAX_RESTARTS = 3         # mountain-pass collapse restarts
KRYLOV_MAX_ITER = 60     # GMRES budget of one Newton step
KRYLOV_RTOL = 1e-12      # GMRES tolerance, relative to the step's right-hand side
FORCING_MAX = 1e-2       # cap of the forcing term of a monotone (trial) Newton run
NEWTON_MAX_ITER = 150    # Newton steps of one polish
NEWTON_STEP_CAP = 0.5    # Newton step cap as a fraction of the current sup-norm
COARSE_FLOOR = 16        # coarsest resolution of a coarse-to-fine solve


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the solver pipelines.  A fixed config (seed included) makes
    every run bitwise deterministic."""

    max_iter: int = 2000                 # descent ceiling across all smoothing stages
    residual_tol: float = 1e-8           # equation-residual acceptance threshold
    smoothing_schedule: tuple = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    seed: int = 0
    init: str = "bump"                   # zero | bump | random
    mp_sweeps: int = 300                 # mountain-pass sweeps: a ceiling when subcritical


@dataclass(frozen=True)
class SolutionPair:
    """A computed (u, v) candidate with its acceptance diagnostics."""

    u: np.ndarray
    v: np.ndarray
    residual_u: float
    residual_v: float
    energy: EnergyReport
    min_u: float
    min_v: float
    converged: bool
    method: str
    iterations: int
    trace: list = field(default_factory=list, repr=False)
    message: str = ""

    @property
    def accepted(self) -> bool:
        return self.converged and self.min_u > 0.0 and self.min_v > 0.0


def _regime(op: FractionalOperator, exps: ExponentPair) -> str:
    """The regime of `exps` on op's dimension and order; resonant exponents raise."""
    regime = exps.regime(op.n, op.s)
    if regime == "resonant":
        raise ResonantProblemError(
            "p*q = 1: the coupled power system is an eigenvalue problem with no "
            "isolated positive solution; choose exponents with p*q != 1"
        )
    return regime


def initial_guess(grid: Grid, cfg: SolverConfig) -> np.ndarray:
    """Starting state: 'bump' is a paraboloid cap centered in the domain with
    unit sup-norm; 'random' is seeded uniform in [0.1, 1)."""
    if cfg.init == "zero":
        return np.zeros(grid.n_nodes)
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
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        return rng.uniform(0.1, 1.0, grid.n_nodes)
    raise ConfigurationError(f"unknown initial guess kind {cfg.init!r}")


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
    _regime(op, exps)
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
        step_v, entry["krylov"] = _gmres(lambda x: x - op.solve(du * op.solve(dv * x)),
                                         op.solve(-f_v - du * ainv_fu), rtol)
        if step_v is None:
            message = f"singular Jacobian at iteration {it}"
            break
        step_u = op.solve(dv * step_v) - ainv_fu
        cap = NEWTON_STEP_CAP * max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1e-12)
        step_sup = max(float(np.max(np.abs(step_u))), float(np.max(np.abs(step_v))))
        scale = min(1.0, cap / max(step_sup, 1e-300))
        u += scale * step_u
        v += scale * step_v
    return SolutionPair(u, v, ru, rv, energy(op, u, exps, smoothing=0.0, au=au),
                        float(np.min(u)), float(np.min(v)), not message, "newton_polish",
                        it, trace, message)


def _collapsed(pair: SolutionPair, floor: float) -> bool:
    """True unless `pair` converged to a strictly positive state with sup|u| above `floor`."""
    return (not pair.converged or float(np.max(np.abs(pair.u))) <= floor
            or pair.min_u <= 0.0 or pair.min_v <= 0.0)


def _newton_trial(op: FractionalOperator, u: np.ndarray, v: np.ndarray, exps: ExponentPair,
                  cfg: SolverConfig, floor: float, entry: dict) -> SolutionPair | None:
    """A monotone Newton run from (u, v) if it converges, passes the collapse
    test against `floor` and passes `_accept_or_raise`, else None.  The
    trace `entry` gets its "outcome" ("accepted" or the reason for
    rejection) and its Newton and GMRES iteration counts ("newton_iters",
    "krylov")."""
    trial = newton_polish(op, u, v, exps, cfg, _monotone=True)
    outcome = trial.message or "collapsed to a vanishing or non-positive state"
    if not _collapsed(trial, floor):
        try:
            _accept_or_raise(trial, cfg)
            outcome = "accepted"
        except NonconvergenceError as exc:
            outcome = str(exc)
    entry.update(outcome=outcome, newton_iters=trial.iterations,
                 krylov=sum(e["krylov"] for e in trial.trace))
    return trial if outcome == "accepted" else None


class _NewtonHandoff:
    """Monotone Newton trials after 5, 10, 20, 40, ... steps of a solver loop.

    A trial from (u, recover_v(u)) works on copies of the caller's state
    and is judged by `_newton_trial` against `floor`; each trial is a
    "newton_handoff" trace entry.
    """

    def __init__(self, op: FractionalOperator, exps: ExponentPair, cfg: SolverConfig,
                 trace: list, floor: float = 0.0):
        self.op, self.exps, self.cfg, self.trace, self.floor = op, exps, cfg, trace, floor
        self.checkpoint = 5

    def __call__(self, steps: int, u: np.ndarray, phi: float, defect: np.ndarray):
        """The accepted trial at a checkpoint, else None.  `phi` and the
        sup-norm of the stationarity `defect` go into the trace entry."""
        if steps != self.checkpoint:
            return None
        self.checkpoint *= 2
        entry = {"stage": "newton_handoff", "iter": steps, "energy": phi,
                 "stationarity": float(np.max(np.abs(defect)))}
        self.trace.append(entry)
        return _newton_trial(self.op, u, recover_v(self.op, u, self.exps.qf), self.exps,
                             self.cfg, self.floor, entry)


# ---------------------------------------------------------------------------
# direct minimization (pq < 1)


def minimize_sublinear(op: FractionalOperator, exps: ExponentPair,
                       cfg: SolverConfig = SolverConfig()) -> SolutionPair:
    """Direct minimization for pq < 1: Armijo-backtracked preconditioned
    descent through the smoothing schedule, handed to Newton as soon as a
    trial Newton run contracts.

    The energy is coercive and bounded below in this regime; the minimizer
    is interior and strictly positive, which is asserted, not enforced.

    Each descent step costs two matvecs and one solve: the loop carries
    A u, the defect r = A sigma_eps(A u) - (u_+)^q is both the stationarity
    measure and the gradient w r (the grid weights are uniform), the
    direction is -A^{-1} r, and Armijo trials use A(u + a d) = A u + a A d.

    After 5, 10, 20, 40, ... descent steps a Newton trial starts from
    (u, recover_v(u)) (see `_NewtonHandoff`); a rejected trial lets the
    descent resume where it was.  `max_iter` is therefore a ceiling: when
    it runs out, the final polish is the plain capped Newton iteration.
    An overflowed trial energy fails the Armijo test; a kept one, or a
    defect that is not finite, raises NonconvergenceError.
    """
    if _regime(op, exps) != "sublinear":
        raise ConfigurationError("minimize_sublinear requires p*q < 1; use mountain_pass")
    p, q = exps.pf, exps.qf
    w = op.grid.weights
    u = initial_guess(op.grid, cfg)
    trace = []
    steps = 0
    handoff = _NewtonHandoff(op, exps, cfg, trace)
    per_stage = max(1, cfg.max_iter // max(len(cfg.smoothing_schedule), 1))
    for eps in cfg.smoothing_schedule:
        stage_tol = max(GRADIENT_TOL * op.scale, 0.02 * eps)
        au = op.apply(u)  # recomputed per stage to bound the drift of the carried product
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is tested below
            phi = energy(op, u, exps, eps, au=au).value
        for _ in range(per_stage):
            with np.errstate(over="ignore", invalid="ignore"):
                r = op.apply(smoothed_power(au, eps, p)) - np.maximum(u, 0.0) ** q
            rel = float(np.max(np.abs(r)))
            if not (math.isfinite(phi) and math.isfinite(rel)):
                raise NonconvergenceError(f"energy or defect overflowed float64 at descent step "
                                          f"{steps} (eps = {eps:g}, (p+1)/p = {(p + 1) / p:g})",
                                          trace=trace)
            trial = handoff(steps, u, phi, r)
            if trial is not None:
                return _finish(trial, "minimize_sublinear", trace, steps, cfg)
            if rel <= stage_tol:
                break
            g = w * r
            direction = -op.solve(r)  # A is SPD: a descent direction free of A's stiffness
            slope = float(np.dot(g, direction))
            if slope >= 0.0:
                break  # numerically stationary
            ad = op.apply(direction)
            alpha = 1.0
            for _ in range(60):
                candidate = u + alpha * direction
                au_new = au + alpha * ad
                with np.errstate(over="ignore", invalid="ignore"):  # inf fails the test
                    phi_new = energy(op, candidate, exps, eps, au=au_new).value
                if phi_new <= phi + ARMIJO * alpha * slope:
                    break
                alpha *= 0.5
            u, au, phi = candidate, au_new, phi_new
            steps += 1
            trace.append({"stage": f"descent_eps={eps:g}", "iter": steps,
                          "energy": phi, "stationarity": rel})
    polished = newton_polish(op, u, recover_v(op, u, q), exps, cfg)
    return _finish(polished, "minimize_sublinear", trace, steps, cfg)


def _finish(polished: SolutionPair, method: str, trace: list, steps: int,
            cfg: SolverConfig) -> SolutionPair:
    """The solver's result from its Newton polish, after `steps` outer steps."""
    result = replace(polished, method=method, trace=trace + polished.trace,
                     iterations=steps + polished.iterations)
    _accept_or_raise(result, cfg)
    return result


# ---------------------------------------------------------------------------
# mountain pass (pq > 1, subcritical)


def _resample_path(path: np.ndarray) -> np.ndarray:
    """Re-parametrize the piecewise-linear path (a node per row) uniformly by arclength.

    Keeps the path a connected curve while individual nodes are deformed;
    without it the deformed node slides off the ridge into the zero basin.
    """
    m = len(path) - 1
    diff = path[1:] - path[:-1]
    seg = np.sqrt(np.sum(diff ** 2, axis=1))
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
    basin: after 5, 10, 20, ... sweeps of each attempt a `_NewtonHandoff`
    trial starts from the ridge node, so `mp_sweeps` is a ceiling.  When the
    budget runs out, the ridge node seeds a Newton polish; a polish that
    collapses to zero or to a non-positive pair triggers a restart with t
    and the budget doubled.

    In the critical and supercritical regimes the run is a diagnostic
    (expected outcome: nonconvergence) and makes no trials, so an early
    Newton convergence cannot pose as a solution.
    """
    regime = _regime(op, exps)
    if regime == "sublinear":
        raise ConfigurationError("mountain_pass requires p*q > 1; use minimize_sublinear")
    eps = MP_SMOOTHING
    bump = initial_guess(op.grid, replace(cfg, init="bump"))
    t = 1.0
    doublings = 0
    while energy(op, t * bump, exps, eps).value >= 0.0:
        t *= 2.0
        doublings += 1
        if doublings > 60:
            raise NonconvergenceError("could not push the path endpoint below zero energy")
    trace = []
    sweeps_budget = cfg.mp_sweeps
    sweeps_run = 0
    m = PATH_NODES
    for restart in range(MAX_RESTARTS + 1):
        handoff = (_NewtonHandoff(op, exps, cfg, trace, floor=1e-6 * t)
                   if regime == "superlinear_subcritical" else None)
        path = (np.arange(m + 1) / m * t)[:, None] * bump
        for sweep in range(sweeps_budget):
            j, phi0, a_ridge = _path_max(op, path, exps, eps)
            ridge = path[j].copy()  # the trace below reads it after path[j] moves
            g = energy_gradient(op, ridge, exps, eps, au=a_ridge)
            defect = g / op.grid.weights
            trial = handoff(sweep, ridge, phi0, defect) if handoff else None
            if trial is not None:
                return _finish(trial, "mountain_pass", trace, sweeps_run + sweep, cfg)
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
            path[j] = candidate
            path = _resample_path(path)
            if sweep % 25 == 0:
                trace.append({"stage": f"mountain_pass_restart{restart}", "iter": sweep,
                              "energy": phi0,
                              "stationarity": euler_lagrange_residual(op, ridge, exps, eps)})
        sweeps_run += sweeps_budget
        j, _, a_ridge = _path_max(op, path, exps, eps)
        ridge = path[j].copy()
        v0 = np.maximum(smoothed_power(a_ridge, eps, exps.pf), 0.0)
        polished = newton_polish(op, ridge, v0, exps, cfg)
        if not _collapsed(polished, 1e-6 * t):
            return _finish(polished, "mountain_pass", trace, sweeps_run, cfg)
        t *= 2.0
        sweeps_budget *= 2
        trace.append({"stage": f"mountain_pass_restart{restart}", "iter": -1,
                      "energy": float("nan"), "stationarity": float("nan")})
    raise NonconvergenceError(
        f"mountain pass failed after {MAX_RESTARTS + 1} attempts "
        f"(last polish: {polished.message or 'collapsed to a non-positive state'})",
        trace=trace,
    )


def _accept_or_raise(pair: SolutionPair, cfg: SolverConfig) -> None:
    if not pair.converged:
        raise NonconvergenceError(
            f"solver finished without meeting the residual tolerance "
            f"(residuals {pair.residual_u:.3e}, {pair.residual_v:.3e}): {pair.message}",
            trace=pair.trace,
        )
    if max(pair.residual_u, pair.residual_v) > cfg.residual_tol:
        raise NonconvergenceError(
            f"residuals {pair.residual_u:.3e}, {pair.residual_v:.3e} exceed "
            f"the acceptance tolerance {cfg.residual_tol:.1e}",
            trace=pair.trace,
        )
    if not (pair.min_u > 0.0 and pair.min_v > 0.0):
        raise NonconvergenceError(
            f"converged to a non-positive pair (min u = {pair.min_u:.3e}, "
            f"min v = {pair.min_v:.3e}); no positive solution found from this start",
            trace=pair.trace,
        )


def _coarse_to_fine(op: FractionalOperator, exps: ExponentPair, cfg: SolverConfig) -> tuple:
    """(result or None, "coarse_to_fine" trace entry) of one coarse-to-fine level.

    A recursive `solve_system` call solves the problem on the grid of half
    the resolution, with the operator assembled as `op` was; the coarse u
    and v, interpolated to op's nodes, start a monotone Newton run.  By
    Newton's mesh independence that start lies in the fine grid's quadratic
    basin.  `_newton_trial` judges the run, with a collapse floor of 1e-6
    of the start's sup-norm; the result is None when it is rejected or the
    coarse level fails.
    """
    grid = op.grid
    entry = {"stage": "coarse_to_fine", "resolution": grid.resolution,
             "n_nodes": grid.n_nodes, "outcome": "", "newton_iters": 0, "krylov": 0}
    try:
        coarse_grid = build_grid(grid.domain, grid.resolution // 2)
        coarse = solve_system(assemble(coarse_grid, op.s, op.singular_correction), exps, cfg)
    except (NonconvergenceError, ConfigurationError) as exc:
        entry["outcome"] = f"coarse level failed: {exc}"
        return None, entry
    u0, v0 = (interpolate(coarse_grid, w, grid.x) for w in (coarse.u, coarse.v))
    trial = _newton_trial(op, u0, v0, exps, cfg, 1e-6 * float(np.max(np.abs(u0))), entry)
    if trial is None:
        return None, entry
    return _finish(trial, "mountain_pass", coarse.trace + [entry], coarse.iterations, cfg), entry


def solve_system(op: FractionalOperator, exps: ExponentPair,
                 cfg: SolverConfig = SolverConfig()) -> SolutionPair:
    """Run the pipeline of the regime: sublinear -> minimization, superlinear
    subcritical -> mountain pass, resonant -> rejected.  In the critical and
    supercritical regimes (where no positive solution exists on star-shaped
    domains) the mountain pass runs as a diagnostic and its nonconvergence
    is the expected, reported outcome.

    In the superlinear subcritical regime, when half the resolution is at
    least COARSE_FLOOR, `_coarse_to_fine` runs first, and the mountain pass
    on op's grid is the fallback when that level is rejected.  Each level
    adds a "coarse_to_fine" trace entry; nothing is cached between calls.
    Superlinear runs start from the bump whatever `cfg.init` says.
    """
    regime = _regime(op, exps)
    if regime == "sublinear":
        return minimize_sublinear(op, exps, cfg)
    if regime == "superlinear_subcritical" and op.grid.resolution // 2 >= COARSE_FLOOR:
        warm, entry = _coarse_to_fine(op, exps, cfg)
        if warm is not None:
            return warm
        fallback = mountain_pass(op, exps, cfg)
        return replace(fallback, trace=[entry] + fallback.trace)
    return mountain_pass(op, exps, cfg)
