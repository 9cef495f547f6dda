"""Solvers for the coupled power system  A u = (v_+)^p,  A v = (u_+)^q.

Three layers:

* minimize_sublinear — preconditioned descent on the scalar energy with a
  smoothing continuation, for pq < 1 where the energy is bounded below and
  the positive solution is the global minimizer; handed to Newton as soon
  as a trial Newton run contracts through positive iterates.
* mountain_pass — for pq > 1 (subcritical), where 0 is a local minimum and
  the solution is a saddle: deform a discretized path from 0 to a
  low-energy state until its maximal node settles on the ridge.
* newton_polish — undamped Newton with a step cap on the coupled system,
  used as the finishing stage by both pipelines and usable on its own.

Positivity is never enforced by projection; it must emerge from the
discrete maximum principle and is then asserted on the accepted pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domains import Grid
from .energy import (
    EnergyReport,
    ExponentPair,
    energy,
    energy_gradient,
    euler_lagrange_residual,
    smoothed_power,
)
from .errors import ConfigurationError, NonconvergenceError, ResonantProblemError
from .operator import FractionalOperator, solve_linear

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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the solver pipelines.  A fixed config (seed included) makes
    every run bitwise deterministic."""

    max_iter: int = 2000                 # descent ceiling across all smoothing stages
    gradient_tol: float = 1e-10          # stationarity target, relative to operator scale
    residual_tol: float = 1e-8           # equation-residual acceptance threshold
    armijo: float = 1e-4                 # sufficient-decrease constant
    smoothing_schedule: tuple = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    seed: int = 0
    init: str = "bump"                   # zero | bump | random | supplied
    init_values: object = None           # used when init == "supplied"
    path_nodes: int = 20                 # mountain-pass path segments
    mp_sweeps: int = 300                 # mountain-pass deformation sweeps
    mp_smoothing: float = 1e-6           # smoothing used during path deformation
    mp_step_fraction: float = 0.25       # per-sweep cap on the deformed node's move
    max_restarts: int = 3                # mountain-pass collapse restarts
    newton_max_iter: int = 150
    newton_step_cap: float = 0.5         # cap as a fraction of the current sup-norm


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


def _require_not_resonant(exps: ExponentPair) -> None:
    if exps.pq == 1:
        raise ResonantProblemError(
            "p*q = 1: the coupled power system is an eigenvalue problem with no "
            "isolated positive solution; choose exponents with p*q != 1"
        )


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
    if cfg.init == "supplied":
        if cfg.init_values is None:
            raise ConfigurationError("init='supplied' requires init_values")
        vals = np.asarray(cfg.init_values, dtype=float)
        if vals.shape != (grid.n_nodes,):
            raise ConfigurationError(
                f"supplied initial guess has shape {vals.shape}, expected ({grid.n_nodes},)"
            )
        return vals.copy()
    raise ConfigurationError(f"unknown initial guess kind {cfg.init!r}")


def recover_v(op: FractionalOperator, u: np.ndarray, q: float) -> np.ndarray:
    """Partner function: the linear solve A v = (u_+)^q."""
    return solve_linear(op, np.maximum(u, 0.0) ** float(q))


def residuals(op: FractionalOperator, u: np.ndarray, v: np.ndarray,
              exps: ExponentPair) -> tuple:
    ru = float(np.max(np.abs(op.apply(u) - np.maximum(v, 0.0) ** exps.pf)))
    rv = float(np.max(np.abs(op.apply(v) - np.maximum(u, 0.0) ** exps.qf)))
    return ru, rv


def _pair(op, u, v, exps, converged, method, iterations, trace, message="") -> SolutionPair:
    ru, rv = residuals(op, u, v, exps)
    rep = energy(op, u, exps, smoothing=0.0)
    return SolutionPair(u, v, ru, rv, rep, float(np.min(u)), float(np.min(v)),
                        converged, method, iterations, trace, message)


# ---------------------------------------------------------------------------
# Newton polish on the coupled system


def _power_derivative(x: np.ndarray, e: float) -> np.ndarray:
    """One-sided derivative of x_+^e: e x^(e-1) where x > 0, and 0 elsewhere.

    For e < 1 the two-sided formula is infinite at x = 0; the zero branch
    keeps the Jacobian finite there."""
    with np.errstate(divide="ignore"):
        full = e * np.maximum(x, 0.0) ** (e - 1.0)
    return np.where(x > 0.0, full, 0.0)


def newton_polish(op: FractionalOperator, u: np.ndarray, v: np.ndarray,
                  exps: ExponentPair, cfg: SolverConfig = SolverConfig(),
                  *, _monotone: bool = False) -> SolutionPair:
    """Newton iteration on F(u,v) = (A u - (v_+)^p, A v - (u_+)^q).

    Steps are capped at a fraction of the current sup-norm instead of being
    damped by a residual-decrease rule: near the saddle points of this
    system the Jacobian is indefinite and residual-monotone damping stalls,
    while capped full steps retain quadratic convergence once inside the
    basin.  Stops at a rounding-floor tolerance well below residual_tol.

    `_monotone` turns the iteration into a contraction test for the
    sublinear handoff: it stops, unconverged, at the first iterate that is
    not strictly positive or whose residual is not below the previous one.
    """
    _require_not_resonant(exps)
    p, q = exps.pf, exps.qf
    m = op.n_nodes
    u = np.asarray(u, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    floor = 1e-11 * max(1.0, float(np.max(np.abs(op.apply(u)))),
                        float(np.max(np.abs(op.apply(v)))))
    tol = min(max(cfg.residual_tol * 1e-3, floor), cfg.residual_tol)
    trace = []
    res = np.inf
    for it in range(cfg.newton_max_iter):
        up, vp = np.maximum(u, 0.0), np.maximum(v, 0.0)
        f = np.concatenate([op.apply(u) - vp**p, op.apply(v) - up**q])
        res, previous = float(np.max(np.abs(f))), res
        trace.append({"stage": "newton", "iter": it, "residual": res})
        if _monotone and not (np.min(u) > 0.0 and np.min(v) > 0.0):
            return _pair(op, u, v, exps, False, "newton_polish", it, trace,
                         message=f"lost positivity at iteration {it}")
        if _monotone and not res < previous:
            return _pair(op, u, v, exps, False, "newton_polish", it, trace,
                         message=f"no contraction at iteration {it}")
        if res <= tol:
            return _pair(op, u, v, exps, True, "newton_polish", it, trace)
        jac = np.block([
            [op.matrix, -np.diag(_power_derivative(v, p))],
            [-np.diag(_power_derivative(u, q)), op.matrix],
        ])
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            if exps.pq == 1:
                raise ResonantProblemError(
                    "singular Jacobian at p*q = 1: amplitude is undetermined "
                    "(eigenvalue problem); no polish possible"
                ) from exc
            return _pair(op, u, v, exps, False, "newton_polish", it, trace,
                         message=f"singular Jacobian at iteration {it}")
        cap = cfg.newton_step_cap * max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1e-12)
        scale = min(1.0, cap / max(float(np.max(np.abs(step))), 1e-300))
        u += scale * step[:m]
        v += scale * step[m:]
    if exps.pq == 1:
        raise ResonantProblemError(
            "Newton did not converge and p*q = 1: the problem is resonant "
            "(continuum of scaled near-solutions); rejecting instead of iterating"
        )
    return _pair(op, u, v, exps, False, "newton_polish", cfg.newton_max_iter, trace,
                 message=f"Newton budget exhausted at residual {res:.3e}")


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
    (u, recover_v(u)).  It is accepted only if every iterate, the start
    included, is strictly positive, every residual is below the previous
    one, and the polish tolerance is reached; otherwise the descent resumes
    where it was.  `max_iter` is therefore a ceiling: when it runs out, the final
    polish is the plain capped Newton iteration.  Every trial is logged in
    the trace as a "newton_handoff" entry with its outcome.
    """
    _require_not_resonant(exps)
    if exps.pq > 1:
        raise ConfigurationError("minimize_sublinear requires p*q < 1; use mountain_pass")
    p, q = exps.pf, exps.qf
    w = op.grid.weights
    u = initial_guess(op.grid, cfg)
    trace = []
    steps = 0
    checkpoint = 5  # descent steps before the next Newton trial
    per_stage = max(1, cfg.max_iter // max(len(cfg.smoothing_schedule), 1))
    for eps in cfg.smoothing_schedule:
        stage_tol = max(cfg.gradient_tol * op.scale, 0.02 * eps)
        au = op.apply(u)  # recomputed per stage to bound the drift of the carried product
        phi = energy(op, u, exps, eps, au=au).value
        for _ in range(per_stage):
            r = op.apply(smoothed_power(au, eps, p)) - np.maximum(u, 0.0) ** q
            rel = float(np.max(np.abs(r)))
            if steps == checkpoint:
                checkpoint *= 2
                trial = newton_polish(op, u, recover_v(op, u, q), exps, cfg, _monotone=True)
                trace.append({"stage": "newton_handoff", "iter": steps, "energy": phi,
                              "stationarity": rel,
                              "outcome": "accepted" if trial.converged else trial.message})
                if trial.converged:
                    return _finish_sublinear(trial, trace, steps, cfg)
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
                phi_new = energy(op, candidate, exps, eps, au=au_new).value
                if phi_new <= phi + cfg.armijo * alpha * slope:
                    break
                alpha *= 0.5
            u, au, phi = candidate, au_new, phi_new
            steps += 1
            trace.append({"stage": f"descent_eps={eps:g}", "iter": steps,
                          "energy": phi, "stationarity": rel})
    polished = newton_polish(op, u, recover_v(op, u, q), exps, cfg)
    return _finish_sublinear(polished, trace, steps, cfg)


def _finish_sublinear(polished: SolutionPair, trace: list, steps: int,
                      cfg: SolverConfig) -> SolutionPair:
    result = replace(polished, method="minimize_sublinear",
                     trace=trace + polished.trace,
                     iterations=steps + polished.iterations)
    _accept_or_raise(result, cfg)
    return result


# ---------------------------------------------------------------------------
# mountain pass (pq > 1, subcritical)


def _resample_path(path: list) -> list:
    """Re-parametrize the piecewise-linear path uniformly by arclength.

    Keeps the path a connected curve while individual nodes are deformed;
    without it the deformed node slides off the ridge into the zero basin.
    """
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


def mountain_pass(op: FractionalOperator, exps: ExponentPair,
                  cfg: SolverConfig = SolverConfig(),
                  allow_any_superlinear: bool = False) -> SolutionPair:
    """Path-deformation solver for the superlinear subcritical regime.

    Endpoints are 0 and t * bump with the energy at t * bump pushed below 0
    by doubling t.  Each sweep takes one capped Armijo descent step on the
    maximal-energy interior node and re-parametrizes the path.  The ridge
    node then seeds a Newton polish.  A polish that collapses to zero or to
    a non-positive pair triggers a restart with t doubled.

    With allow_any_superlinear the critical/supercritical regimes are
    admitted as a diagnostic (expected outcome there: nonconvergence).
    """
    _require_not_resonant(exps)
    if exps.pq < 1:
        raise ConfigurationError("mountain_pass requires p*q > 1; use minimize_sublinear")
    regime = exps.regime(op.n, op.s)
    if regime != "superlinear_subcritical" and not allow_any_superlinear:
        raise ConfigurationError(
            f"regime is {regime}; pass allow_any_superlinear=True to run the "
            "mountain pass as a diagnostic there"
        )
    eps = cfg.mp_smoothing
    bump_cfg = replace(cfg, init="bump")
    bump = initial_guess(op.grid, bump_cfg)
    t = 1.0
    doublings = 0
    while energy(op, t * bump, exps, eps).value >= 0.0:
        t *= 2.0
        doublings += 1
        if doublings > 60:
            raise NonconvergenceError("could not push the path endpoint below zero energy")
    trace = []
    sweeps_budget = cfg.mp_sweeps
    m = cfg.path_nodes
    for restart in range(cfg.max_restarts + 1):
        path = [(j / m) * t * bump for j in range(m + 1)]
        ridge = path[1]
        for sweep in range(sweeps_budget):
            energies = [energy(op, node, exps, eps).value for node in path]
            j = 1 + int(np.argmax(energies[1:m]))
            ridge = path[j]
            g = energy_gradient(op, ridge, exps, eps)
            # preconditioned by A^{-1}: A is SPD, and this removes its stiffness
            direction = -op.solve(g / op.grid.weights)
            cap = cfg.mp_step_fraction * max(float(np.max(np.abs(ridge))), 1e-3 * t)
            alpha = min(1.0, cap / max(float(np.max(np.abs(direction))), 1e-300))
            phi0 = energies[j]
            slope = float(np.dot(g, direction))
            for _ in range(40):
                candidate = ridge + alpha * direction
                if energy(op, candidate, exps, eps).value <= phi0 + cfg.armijo * alpha * slope:
                    break
                alpha *= 0.5
            path[j] = candidate
            path = _resample_path(path)
            if sweep % 25 == 0:
                trace.append({"stage": f"mountain_pass_restart{restart}", "iter": sweep,
                              "energy": phi0,
                              "stationarity": euler_lagrange_residual(op, ridge, exps, eps)})
        energies = [energy(op, node, exps, eps).value for node in path]
        j = 1 + int(np.argmax(energies[1:m]))
        ridge = path[j]
        v0 = np.maximum(smoothed_power(op.apply(ridge), eps, exps.pf), 0.0)
        polished = newton_polish(op, ridge, v0, exps, cfg)
        collapsed = (not polished.converged
                     or float(np.max(np.abs(polished.u))) <= 1e-6 * t
                     or polished.min_u <= 0.0 or polished.min_v <= 0.0)
        if not collapsed:
            result = replace(polished, method="mountain_pass",
                             trace=trace + polished.trace,
                             iterations=(restart + 1) * sweeps_budget + polished.iterations)
            _accept_or_raise(result, cfg)
            return result
        t *= 2.0
        sweeps_budget *= 2
        trace.append({"stage": f"mountain_pass_restart{restart}", "iter": -1,
                      "energy": float("nan"),
                      "stationarity": float("nan")})
    raise NonconvergenceError(
        f"mountain pass failed after {cfg.max_restarts + 1} attempts "
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


def solve_system(op: FractionalOperator, exps: ExponentPair,
                 cfg: SolverConfig = SolverConfig(), solver: str = "auto") -> SolutionPair:
    """Dispatch to the right pipeline.

    'auto' uses the regime: sublinear -> minimization, superlinear
    subcritical -> mountain pass, resonant -> rejected.  In the critical and
    supercritical regimes (where no positive solution exists on star-shaped
    domains) the mountain pass runs as a diagnostic and its nonconvergence
    is the expected, reported outcome.
    """
    if solver not in ("auto", "sublinear", "mountain_pass"):
        raise ConfigurationError(f"unknown solver {solver!r}")
    if solver == "sublinear":
        return minimize_sublinear(op, exps, cfg)
    if solver == "mountain_pass":
        return mountain_pass(op, exps, cfg, allow_any_superlinear=True)
    regime = exps.regime(op.n, op.s)
    if regime == "resonant":
        _require_not_resonant(exps)
    if regime == "sublinear":
        return minimize_sublinear(op, exps, cfg)
    return mountain_pass(op, exps, cfg, allow_any_superlinear=True)
