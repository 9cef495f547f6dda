"""Solver pipelines: initial states, Newton finishing, direct minimization,
path deformation, dispatch, and determinism."""

import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import fraclane.solvers
import oracles
from fraclane import (
    ConfigurationError,
    Domain,
    ExponentPair,
    FractionalOperator,
    NonconvergenceError,
    ResonantProblemError,
    SolverConfig,
    assemble,
    build_grid,
    euler_lagrange_residual,
    initial_guess,
    minimize_sublinear,
    mountain_pass,
    newton_polish,
    recover_v,
    solve_system,
)
from fraclane.solvers import FORCING_MAX, KRYLOV_RTOL, MAX_RESTARTS


@pytest.fixture(scope="module")
def setup64():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    return grid, assemble(grid, 0.5)


# ---------------------------------------------------------------------------
# initial states


def test_initial_guess_kinds(setup64):
    grid, _ = setup64
    bump = initial_guess(grid, SolverConfig(init="bump"))
    assert np.max(bump) == pytest.approx(1.0)
    assert np.all(bump >= 0)
    assert bump == pytest.approx(bump[::-1])  # centered and symmetric

    r1 = initial_guess(grid, SolverConfig(init="random", seed=9))
    r2 = initial_guess(grid, SolverConfig(init="random", seed=9))
    r3 = initial_guess(grid, SolverConfig(init="random", seed=10))
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)
    assert np.all((r1 >= 0.1) & (r1 < 1.0))

    # 0 is a fixed point of the sublinear map, so it is no start
    with pytest.raises(ConfigurationError, match="unknown init 'zero'"):
        initial_guess(grid, SolverConfig(init="zero"))


def test_initial_guess_errors(setup64):
    grid, _ = setup64
    with pytest.raises(ConfigurationError):
        initial_guess(grid, SolverConfig(init="nope"))


@pytest.mark.parametrize("settings, message", [
    ({"residual_tol": float("nan")}, "residual_tol must be positive and finite, got nan"),
    ({"residual_tol": -1.0}, "residual_tol must be positive and finite, got -1.0"),
    ({"residual_tol": float("inf")}, "residual_tol must be positive and finite, got inf"),
    ({"seed": -1, "init": "random"}, "seed must be nonnegative, got -1"),
    ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
    ({"mp_sweeps": -5}, "mp_sweeps must be at least 1, got -5"),
    ({"init": "zero"}, "unknown init 'zero' (CLI supports bump|random)"),
], ids=["nan-tol", "negative-tol", "infinite-tol", "negative-seed", "no-steps", "no-sweeps",
        "zero-init"])
def test_solver_config_rejects_what_the_cli_rejects(op64, settings, message):
    # a NaN or negative tolerance ran 150 Newton steps and then reported a
    # missed tolerance at residuals of 6e-15; a negative seed let NumPy's
    # ValueError out of a random start
    with pytest.raises(ConfigurationError) as caught:
        solve_system(op64, ExponentPair(0.5, 0.5), SolverConfig(**settings))
    assert str(caught.value) == message
    with pytest.raises(ConfigurationError):
        dataclasses.replace(SolverConfig(), **settings)


def test_recover_v(setup64):
    grid, op = setup64
    assert not recover_v(op, np.zeros(grid.n_nodes), 2.0).any()
    v = recover_v(op, np.ones(grid.n_nodes), 1.0)
    exact = oracles.torsion_solution(grid.x, 1, 0.5)
    assert np.max(np.abs(v - exact)) / np.max(exact) <= 0.05
    rng = np.random.default_rng(1)
    assert np.all(recover_v(op, rng.uniform(0, 1, grid.n_nodes), 0.5) > 0)


# ---------------------------------------------------------------------------
# Newton finishing


def test_newton_polish_keeps_exact_solution(setup64):
    grid, op = setup64
    u0, v0 = oracles.fixed_point_solution(op, 0.5, 0.5)
    pair = newton_polish(op, u0, v0, ExponentPair(0.5, 0.5))
    assert pair.accepted
    assert pair.iterations <= 1
    assert np.max(np.abs(pair.u - u0)) <= 1e-10 * np.max(u0)


def test_newton_polish_recovers_from_noise(setup64):
    grid, op = setup64
    u0, v0 = oracles.fixed_point_solution(op, 0.5, 0.5)
    rng = np.random.default_rng(17)
    noise = 1.0 + 1e-2 * rng.standard_normal(grid.n_nodes)
    pair = newton_polish(op, u0 * noise, v0 * noise[::-1], ExponentPair(0.5, 0.5))
    assert pair.accepted
    assert pair.iterations <= 8
    assert max(pair.residual_u, pair.residual_v) <= 1e-10 * op.scale
    assert np.max(np.abs(pair.u - u0)) <= 1e-8 * np.max(u0)


def test_newton_polish_rejects_resonant_pair(setup64):
    grid, op = setup64
    start = 1.0 - grid.x[:, 0] ** 2
    with pytest.raises(ResonantProblemError):
        newton_polish(op, start, start, ExponentPair(1.0, 1.0))


def test_newton_polish_reports_exactly_singular_schur_complement(setup64):
    # A = 4 I factors exactly (A^{-1} = I / 4), so at u = v = 2 with p = q = 2
    # the Schur complement A - D_u A^{-1} D_v = 4 I - 4 I / 4 * 4 is exactly 0.
    grid, op = setup64
    fake = FractionalOperator(grid, op.s, 4.0 * np.eye(op.n_nodes))
    two = np.full(op.n_nodes, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = newton_polish(fake, two, two, ExponentPair(2.0, 2.0))
        with pytest.raises(ResonantProblemError):
            newton_polish(fake, two, two, ExponentPair(1.0, 1.0))
    assert not pair.converged
    assert pair.message == "singular Jacobian at iteration 0"


def test_newton_polish_jacobian_finite_where_positive_part_vanishes(setup64):
    # q < 1: the derivative of (u_+)^q is infinite at u = 0 from the right;
    # the Jacobian takes the one-sided value 0 there instead.
    grid, op = setup64
    u = np.maximum(1.0 - grid.x[:, 0] ** 2, 0.0)
    u[0] = 0.0
    v = recover_v(op, u, 0.25)
    pair = newton_polish(op, u, v, ExponentPair(2.0, 0.25))
    assert pair.accepted
    assert pair.iterations <= 4


def _newton_step_cases():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    op = assemble(grid, 0.5)
    u = np.maximum(1.0 - grid.x[:, 0] ** 2, 0.0)
    u[0] = 0.0  # the one-sided derivative branch of (u_+)^(1/4)
    yield op, u, recover_v(op, u, 0.25), ExponentPair(2.0, 0.25)

    disk = build_grid(Domain.disk(1.0), 12)
    op = assemble(disk, 0.5)
    u = 2.0 * initial_guess(disk, SolverConfig(init="bump"))
    yield op, u, 0.8 * u, ExponentPair(2.0, 2.0)


def test_newton_step_matches_full_jacobian_solve(monkeypatch):
    # one uncapped iteration: the returned pair is the start plus one step
    monkeypatch.setattr(fraclane.solvers, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(fraclane.solvers, "NEWTON_STEP_CAP", 1e6)
    for op, u, v, exps in _newton_step_cases():
        m = op.n_nodes
        pair = newton_polish(op, u, v, exps)
        assert not pair.converged and pair.iterations == 1
        step = np.concatenate([pair.u - u, pair.v - v])
        ref = oracles.block_newton_step(op, u, v, exps.pf, exps.qf)
        assert step.shape == (2 * m,)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_newton_polish_allocates_no_square_array(monkeypatch):
    # an N x N array alone is N^2 doubles; the Krylov step holds a (61, N)
    # basis and a few vectors
    monkeypatch.setattr(fraclane.solvers, "NEWTON_MAX_ITER", 2)
    grid = build_grid(Domain.interval(-1.0, 1.0), 600)
    op = assemble(grid, 0.5)
    op.factor()  # the operator's cached factor is not newton_polish's allocation
    shape = np.sqrt(1.0 - grid.x[:, 0] ** 2)
    tracemalloc.start()
    try:
        pair = newton_polish(op, 3.0 * shape, 2.0 * shape, ExponentPair(2.0, 2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.iterations == 2  # two steps were taken
    n = op.n_nodes
    assert peak < 0.5 * n * n * 8


def _perturbed_superlinear_start(resolution):
    """An operator on (-1, 1) at s = 1/2 and a 5% smooth perturbation of the
    p = q = 2 solution (u = v, from the scalar-branch oracle)."""
    grid = build_grid(Domain.interval(-1.0, 1.0), resolution)
    op = assemble(grid, 0.5)
    u = oracles.scalar_branch(op, 2.0)
    x = grid.x[:, 0]
    return op, u * (1.0 + 0.05 * np.cos(2.0 * x)), u * (1.0 - 0.05 * np.sin(3.0 * x))


def test_newton_krylov_iterations_do_not_grow_with_the_mesh():
    counts = []
    for resolution in (64, 1024):
        op, u, v = _perturbed_superlinear_start(resolution)
        pair = newton_polish(op, u, v, ExponentPair(2.0, 2.0))
        assert pair.accepted
        counts.append([e["krylov"] for e in pair.trace if e["krylov"]])
    coarse, fine = counts
    assert len(coarse) == len(fine) >= 2
    assert all(abs(a - b) <= 1 for a, b in zip(coarse, fine))
    assert max(coarse + fine) <= 12


class _ApplySolveOnly:
    """The operator interface Newton needs and nothing more: no matrix and no
    factor to reach for."""

    __slots__ = ("apply", "solve", "scale", "grid", "n_nodes", "n", "s")

    def __init__(self, op):
        matrix, factor = op.matrix.copy(), cho_factor(op.matrix)
        self.apply = lambda u: matrix @ u
        self.solve = lambda f: cho_solve(factor, f, check_finite=False)
        self.scale, self.grid, self.n_nodes, self.n, self.s = (
            op.scale, op.grid, op.n_nodes, op.n, op.s)


@pytest.mark.parametrize("residual_tol", [1e-13, 1e-11, 1e-4])
def test_converged_newton_runs_are_within_the_residual_tolerance(setup64, residual_tol):
    # A converged run, plain or monotone, stops at a tolerance of at most
    # residual_tol: the trials accept a pair that does not collapse without
    # checking its residuals again.  1e-13 lies below the rounding floor
    # 1e-11 max(1, |A u|, |A v|), where only the cap at residual_tol holds.
    grid, op = setup64
    cfg = SolverConfig(residual_tol=residual_tol)
    rng = np.random.default_rng(5)
    sub_u, sub_v = oracles.fixed_point_solution(op, 0.5, 0.5)
    starts = [(op, sub_u, sub_v, ExponentPair(0.5, 0.5)),
              (*_perturbed_superlinear_start(64), ExponentPair(2.0, 2.0))]
    for _ in range(3):
        noise = 1.0 + 5e-2 * rng.standard_normal(grid.n_nodes)
        starts.append((op, sub_u * noise, sub_v * noise[::-1], ExponentPair(0.5, 0.5)))
    for monotone in (False, True):
        pairs = [newton_polish(o, u, v, exps, cfg, _monotone=monotone)
                 for o, u, v, exps in starts]
        converged = [pair for pair in pairs if pair.converged]
        assert converged
        for pair in converged:
            assert max(pair.residual_u, pair.residual_v) <= residual_tol


def test_newton_polish_needs_only_apply_and_solve(setup64):
    _, op = setup64
    duck = _ApplySolveOnly(op)
    assert not hasattr(duck, "matrix") and not hasattr(duck, "factor")
    u0, v0 = oracles.fixed_point_solution(op, 0.5, 0.5)
    start_u, start_v = 1.05 * u0, 0.95 * v0
    pair = newton_polish(duck, start_u, start_v, ExponentPair(0.5, 0.5))
    assert pair.accepted and pair.iterations >= 2
    assert np.max(np.abs(pair.u - u0)) <= 1e-8 * np.max(u0)
    dense = newton_polish(op, start_u, start_v, ExponentPair(0.5, 0.5))
    assert np.array_equal(pair.u, dense.u) and np.array_equal(pair.v, dense.v)


# ---------------------------------------------------------------------------
# direct minimization (pq < 1)


def test_minimize_sublinear_accepted_solution(sublinear_pair_128, op128):
    pair = sublinear_pair_128
    assert pair.accepted
    assert pair.method == "minimize_sublinear"
    assert max(pair.residual_u, pair.residual_v) <= 1e-10 * op128.scale
    assert pair.energy.value < 0
    assert pair.min_u > 0 and pair.min_v > 0
    # ground state of a symmetric problem is symmetric
    assert np.max(np.abs(pair.u - pair.u[::-1])) <= 1e-8 * np.max(pair.u)
    assert euler_lagrange_residual(op128, pair.u, ExponentPair(0.5, 0.5)) \
        <= 1e-9 * op128.scale


def test_minimize_matches_descent_oracle(sublinear_pair_128, op128):
    u_ref, v_ref = oracles.descent_solution(op128, 0.5, 0.5)
    gap_u = np.max(np.abs(sublinear_pair_128.u - u_ref)) / np.max(u_ref)
    gap_v = np.max(np.abs(sublinear_pair_128.v - v_ref)) / np.max(v_ref)
    assert max(gap_u, gap_v) <= 1e-9


def test_minimize_independent_of_initial_guess(op128, sublinear_pair_128):
    other = minimize_sublinear(op128, ExponentPair(0.5, 0.5),
                               SolverConfig(init="random", seed=4))
    gap = np.max(np.abs(other.u - sublinear_pair_128.u)) / np.max(sublinear_pair_128.u)
    assert gap <= 1e-9


def _handoffs(pair):
    return [e for e in pair.trace if e["stage"] == "newton_handoff"]


def _fixed_point_steps(trace):
    return [e for e in trace if e["stage"] == "fixed_point"]


def test_minimize_hands_off_to_newton_early(sublinear_pair_128):
    pair = sublinear_pair_128
    steps = _fixed_point_steps(pair.trace)
    assert len(steps) <= 5
    handoffs = _handoffs(pair)
    assert [(h["iter"], h["outcome"]) for h in handoffs] == [(5, "accepted")]
    assert handoffs[0]["increment"] == steps[-1]["increment"]


@pytest.mark.parametrize("domain, resolution", [
    (Domain.interval(-1.0, 1.0), 64), (Domain.disk(1.0), 16)])
@pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.25, 2.0), (0.9, 1.0)])
@pytest.mark.parametrize("init", ["bump", "random"])
def test_fixed_point_map_contracts_by_pq_in_thompson_metric(domain, resolution, p, q, init,
                                                            monkeypatch):
    # T is order-preserving and homogeneous of degree pq, so successive
    # Thompson distances shrink by pq at least.  The handoff is switched
    # off so the map runs until its rounding floor.
    _no_handoff(monkeypatch)
    op = assemble(build_grid(domain, resolution), 0.5)
    pair = minimize_sublinear(op, ExponentPair(p, q), SolverConfig(init=init, max_iter=60))
    assert pair.accepted
    distances = [e["thompson"] for e in _fixed_point_steps(pair.trace)][1:]
    checked = [(prev, d) for prev, d in zip(distances, distances[1:]) if prev > 1e-8]
    assert len(checked) >= 5
    assert all(d <= p * q * (1.0 + 1e-6) * prev for prev, d in checked)


def test_minimize_2d_asymmetric_random_start_falls_back_then_hands_off():
    # p < 1 < q on a rectangle: early Newton trials from a random start
    # leave the positive cone or stop contracting, and the fixed-point
    # iteration has to resume.
    grid = build_grid(Domain.rectangle(2.0, 1.0), 16)
    op = assemble(grid, 0.5)
    exps = ExponentPair(0.3, 3.0)
    ref = minimize_sublinear(op, exps, SolverConfig(init="bump"))
    assert ref.accepted
    for seed in (0, 1):
        pair = minimize_sublinear(op, exps, SolverConfig(init="random", seed=seed))
        assert pair.accepted
        assert np.max(np.abs(pair.u - ref.u)) <= 1e-9 * np.max(np.abs(ref.u))
        assert np.max(np.abs(pair.v - ref.v)) <= 1e-9 * np.max(np.abs(ref.v))
        outcomes = [h["outcome"] for h in _handoffs(pair)]
        assert outcomes[-1] == "accepted"
        assert len(outcomes) >= 2 and "accepted" not in outcomes[:-1]
        assert {o.split(" at ")[0] for o in outcomes[:-1]} <= {"lost positivity",
                                                               "no contraction"}


def test_minimize_rejects_wrong_regimes(setup64):
    _, op = setup64
    with pytest.raises(ConfigurationError):
        minimize_sublinear(op, ExponentPair(3.0, 3.0))
    with pytest.raises(ResonantProblemError):
        minimize_sublinear(op, ExponentPair(1.0, 1.0))


# ---------------------------------------------------------------------------
# path deformation (pq > 1, subcritical)


def test_mountain_pass_accepted_solution(superlinear_pair_128, op128):
    pair = superlinear_pair_128
    assert pair.accepted
    assert pair.method == "mountain_pass"
    assert max(pair.residual_u, pair.residual_v) <= 1e-10 * op128.scale
    assert pair.energy.value > 0
    assert pair.min_u > 0 and pair.min_v > 0
    # p = q makes the pair symmetric: u and v coincide
    assert np.max(np.abs(pair.u - pair.v)) <= 1e-8 * np.max(pair.u)


def test_mountain_pass_matches_scalar_oracle(superlinear_pair_128, op128):
    u_ref = oracles.scalar_branch(op128, 3.0)
    gap = np.max(np.abs(superlinear_pair_128.u - u_ref)) / np.max(u_ref)
    assert gap <= 1e-8


def test_mountain_pass_rejects_wrong_regimes(setup64):
    _, op = setup64
    with pytest.raises(ConfigurationError):
        mountain_pass(op, ExponentPair(0.5, 0.5))
    with pytest.raises(ResonantProblemError):
        mountain_pass(op, ExponentPair(1.0, 1.0))


def test_mountain_pass_asymmetric_exponents(setup64):
    _, op = setup64
    pair = mountain_pass(op, ExponentPair(2.0, 4.0))
    assert pair.accepted
    assert pair.energy.value > 0
    # partner equation holds: A v = u^q to the same residual scale
    assert pair.residual_v <= 1e-10 * op.scale


def _paths(grid):
    """Paths of 21 nodes: a random one, one with a zero-length segment, one
    of identical nodes (zero total length), and a deformed bump path."""
    rng = np.random.default_rng(3)
    n = grid.n_nodes
    random = rng.normal(size=(21, n))
    repeated = random.copy()
    repeated[7] = repeated[6]
    flat = np.tile(rng.normal(size=n), (21, 1))
    bump = initial_guess(grid, SolverConfig(init="bump"))
    deformed = (np.arange(21) / 20 * 8.0)[:, None] * bump
    deformed[9] += 0.3 * rng.uniform(size=n)
    return [random, repeated, flat, deformed]


def test_resample_path_matches_node_by_node_form_bitwise(setup64):
    grid, _ = setup64
    for path in _paths(grid):
        got = fraclane.solvers._resample_path(path)
        want = np.stack(oracles.resample_path_by_node(list(path)))
        assert got.tobytes() == want.tobytes()


def test_path_max_matches_node_by_node_form_bitwise(setup64):
    grid, op = setup64
    for path in _paths(grid):
        for p, q, eps in ((3.0, 3.0, 1e-6), (2.0, 4.0, 0.0)):
            j, phi, au = fraclane.solvers._path_max(op, path, ExponentPair(p, q), eps)
            j_ref, phi_ref, au_ref = oracles.path_max_by_node(op, list(path), p, q, eps)
            assert (j, phi) == (j_ref, phi_ref)
            assert au.tobytes() == au_ref.tobytes()


def _count_calls(op, monkeypatch):
    """Count `op.apply` calls, matvecs by rows (a 1-D input counts 1, a
    (k, N) stack k) and `energy_gradient` calls (one per sweep started)."""
    calls = {"apply": 0, "matvecs": 0, "gradient": 0}
    apply, gradient = op.apply, fraclane.solvers.energy_gradient

    def counting_apply(u):
        calls["apply"] += 1
        calls["matvecs"] += 1 if np.ndim(u) == 1 else len(u)
        return apply(u)

    def counting_gradient(*args, **kwargs):
        calls["gradient"] += 1
        return gradient(*args, **kwargs)

    monkeypatch.setattr(op, "apply", counting_apply)
    monkeypatch.setattr(fraclane.solvers, "energy_gradient", counting_gradient)
    return calls


def _no_handoff(monkeypatch):
    """Make every Newton handoff trial a rejection that computes nothing."""
    monkeypatch.setattr(fraclane.solvers, "_handoff", lambda *args, **kwargs: None)


def test_mountain_pass_matvec_and_gradient_counts(setup64, monkeypatch):
    # The trial after 5 sweeps converges in 7 Newton steps (19 GMRES
    # iterations under its forcing term).  Matvec rows: 6 path maxima of 19
    # interior rows, 6 gradients, 16 Armijo trials, and the trial's 8 Newton
    # iterates, two rows each (A u and A v), which also give its floor,
    # residuals and energy.  The logged stationarity reads the sweep's
    # gradient and costs none.
    grid, _ = setup64
    op = assemble(grid, 0.5)
    calls = _count_calls(op, monkeypatch)
    pair = mountain_pass(op, ExponentPair(3.0, 3.0), SolverConfig(mp_sweeps=40))
    assert pair.accepted
    handoffs = [(e["iter"], e["outcome"], e["newton_iters"], e["krylov"])
                for e in _handoffs(pair)]
    assert handoffs == [(5, "accepted", 7, 19)]
    assert calls["gradient"] == 6  # 5 sweeps run, the 6th stopped by the trial
    assert pair.iterations == 5 + 7
    assert calls["matvecs"] == 6 * 19 + 6 + 16 + 16
    assert calls["apply"] == 44  # the matvecs less 18 rows per path maximum


def test_mountain_pass_full_budget_matvec_counts(setup64, monkeypatch):
    # Without the handoff every sweep of the budget runs.  Per sweep: one
    # product per interior node (reused by the ridge's energy and gradient),
    # one more inside the gradient and one per Armijo trial; the stationarity
    # logged every 25 sweeps reads the gradient, 2 fewer than evaluating it
    # anew.  Endpoint energies are never evaluated, and the polish seed
    # reuses the ridge's product: 3 matvecs fewer per sweep and per attempt
    # than evaluating every node and the gradient from scratch (1236 for
    # this case).  The polish evaluates 2 rows per iterate and nothing more:
    # 5 fewer than recomputing its floor, residuals and energy.  The 19
    # interior products of a sweep are one stacked call.
    grid, _ = setup64
    op = assemble(grid, 0.5)
    calls = _count_calls(op, monkeypatch)
    _no_handoff(monkeypatch)
    pair = mountain_pass(op, ExponentPair(3.0, 3.0), SolverConfig(mp_sweeps=40))
    assert pair.accepted
    assert not any(e["iter"] == -1 for e in pair.trace)  # one attempt, no restart
    assert calls["gradient"] == 40  # exactly one gradient per sweep
    assert calls["matvecs"] == 1236 - 3 * 40 - 3 - 5 - 2 * 2  # logged at sweeps 0 and 25
    assert calls["apply"] == 1104 - 18 * (40 + 1)  # 41 path maxima, 19 rows each


def test_failed_line_search_ends_the_attempt(setup64, monkeypatch):
    # Every Armijo trial of the third sweep is refused (its single-row
    # energies read inf).  The attempt must end there with a trace entry,
    # and its polish must start from that sweep's ridge, not from a path
    # that kept a step which did not lower the energy.
    _, op = setup64
    solvers = fraclane.solvers
    value, gradient, polish = solvers.energy_value, solvers.energy_gradient, solvers.newton_polish
    ridges, starts, polished = [], [], []

    def recording_gradient(op, u, *args, **kwargs):
        ridges.append(u.copy())
        return gradient(op, u, *args, **kwargs)

    def refusing_value(op, u, *args, **kwargs):
        return np.inf if np.ndim(u) == 1 and len(ridges) == 3 else value(op, u, *args, **kwargs)

    def recording_polish(op, u, *args, **kwargs):
        starts.append(u.copy())
        polished.append(polish(op, u, *args, **kwargs))
        return polished[-1]

    monkeypatch.setattr(solvers, "energy_gradient", recording_gradient)
    monkeypatch.setattr(solvers, "energy_value", refusing_value)
    monkeypatch.setattr(solvers, "newton_polish", recording_polish)
    _no_handoff(monkeypatch)
    pair = mountain_pass(op, ExponentPair(3.0, 3.0), SolverConfig(mp_sweeps=40))
    failed = [(e["iter"], e["outcome"]) for e in pair.trace if e["stage"] == "line_search"]
    assert failed == [(2, "no decrease after 40 halvings")]
    assert len(ridges) == 3 and len(starts) == 1  # no sweep after the failure
    assert starts[0].tobytes() == ridges[2].tobytes()
    assert pair.accepted and pair.iterations == 3 + polished[0].iterations  # 3 sweeps run


def test_checkpoints_are_five_times_powers_of_two():
    fired = [steps for steps in range(2001) if fraclane.solvers._checkpoint(steps)]
    assert fired == [5, 10, 20, 40, 80, 160, 320, 640, 1280]


def test_mountain_pass_hands_off_to_newton_early(monkeypatch):
    cfg = SolverConfig()
    cases = ((Domain.interval(-1.0, 1.0), 64, ExponentPair(2.0, 4.0)),
             (Domain.disk(1.0), 12, ExponentPair(2.0, 2.0)))
    for domain, res, exps in cases:
        op = assemble(build_grid(domain, res), 0.5)
        calls = _count_calls(op, monkeypatch)
        pair = mountain_pass(op, exps, cfg)
        assert pair.accepted
        assert [h["outcome"] for h in _handoffs(pair)][-1] == "accepted"
        assert calls["gradient"] < cfg.mp_sweeps
        if exps.p == exps.q:
            u_ref = oracles.scalar_branch(op, exps.pf)
            assert np.max(np.abs(pair.u - u_ref)) <= 1e-10
            assert np.max(np.abs(pair.v - u_ref)) <= 1e-10


def test_rejected_handoff_trial_leaves_the_path_untouched(setup64, monkeypatch):
    # A trial that runs in full and is then rejected must give the pair of a
    # run whose trials reject without computing anything.  Here all three
    # trials (after 5, 10 and 20 sweeps) converge and are overridden.
    _, op = setup64
    exps, cfg = ExponentPair(3.0, 3.0), SolverConfig(mp_sweeps=40)
    real = fraclane.solvers._handoff

    def run_then_reject(*args, **kwargs):
        real(*args, **kwargs)
        return None

    monkeypatch.setattr(fraclane.solvers, "_handoff", run_then_reject)
    tried = mountain_pass(op, exps, cfg)
    _no_handoff(monkeypatch)
    untried = mountain_pass(op, exps, cfg)
    assert [(h["iter"], h["outcome"]) for h in _handoffs(tried)] == [
        (5, "accepted"), (10, "accepted"), (20, "accepted")]
    assert not _handoffs(untried)
    assert tried.u.tobytes() == untried.u.tobytes()
    assert tried.v.tobytes() == untried.v.tobytes()
    assert [e for e in tried.trace if e["stage"] != "newton_handoff"] == untried.trace


def test_handoff_trace_keeps_the_work_of_a_rejected_trial():
    # On the disk the trial after 5 sweeps takes 4 Newton steps and is then
    # rejected; its counts must still reach the trace.
    op = assemble(build_grid(Domain.disk(1.0), 40), 0.5)
    pair = mountain_pass(op, ExponentPair(2.0, 2.0))
    rejected, accepted = _handoffs(pair)
    assert (rejected["iter"], rejected["outcome"]) == (5, "no contraction at iteration 4")
    assert rejected["newton_iters"] == 4 and rejected["krylov"] > 0
    newton = [e for e in pair.trace if e["stage"] == "newton"]  # the accepted trial's
    assert accepted["outcome"] == "accepted"
    assert accepted["newton_iters"] == len(newton) - 1
    assert accepted["krylov"] == sum(e["krylov"] for e in newton)


def test_mountain_pass_diagnostic_regimes_make_no_trials(monkeypatch):
    # s = 1/4 in 1D: (3, 3) is critical and (4, 4) supercritical.  There the
    # mountain pass is a diagnostic: every attempt runs its whole budget,
    # whether solve_system dispatches to it or it is called directly.
    op = assemble(build_grid(Domain.interval(-1.0, 1.0), 64), 0.25)
    cfg = SolverConfig(mp_sweeps=40)
    for exps, regime, solver in ((ExponentPair(3.0, 3.0), "critical", solve_system),
                                 (ExponentPair(4.0, 4.0), "supercritical", solve_system),
                                 (ExponentPair(3.0, 3.0), "critical", mountain_pass)):
        assert exps.regime(1, 0.25) == regime
        calls = _count_calls(op, monkeypatch)
        try:
            trace = solver(op, exps, cfg).trace
            attempts = 1 + sum(e["iter"] == -1 for e in trace)
        except NonconvergenceError as exc:
            trace = exc.trace
            attempts = MAX_RESTARTS + 1
        assert not any(e["stage"] == "newton_handoff" for e in trace)
        assert calls["gradient"] == sum(cfg.mp_sweeps * 2**k for k in range(attempts))
        for k in range(attempts):
            logged = [e["iter"] for e in trace
                      if e["stage"] == f"mountain_pass_restart{k}" and e["iter"] >= 0]
            assert logged == list(range(0, cfg.mp_sweeps * 2**k, 25))


def test_a_collapsed_mountain_pass_restarts_and_is_accepted(monkeypatch):
    # at s = 3/4 on the disk the polish of (5, 5) collapses twice; the third
    # attempt, with the endpoint and the sweep budget quadrupled, converges
    op = assemble(build_grid(Domain.disk(1.0), 24), Fraction(3, 4))
    exps = ExponentPair(5, 5)
    pair = solve_system(op, exps)
    assert pair.accepted and pair.method == "mountain_pass"
    assert [e["stage"] for e in pair.trace if e["iter"] == -1] == [
        "mountain_pass_restart0", "mountain_pass_restart1"]
    monkeypatch.setattr(fraclane.solvers, "MAX_RESTARTS", 0)
    with pytest.raises(NonconvergenceError, match="mountain pass failed after 1 attempts"):
        solve_system(op, exps)


# ---------------------------------------------------------------------------
# coarse-to-fine levels of the superlinear subcritical regime


def _levels(pair):
    return [e for e in pair.trace if e["stage"] == "coarse_to_fine"]


@pytest.mark.parametrize("domain, resolution, s, warm", [
    (Domain.interval(-1.0, 1.0), 128, 0.25, [32, 64, 128]),  # 16 is the floor
    (Domain.disk(1.0), 32, 0.5, [32]),
])
def test_coarse_to_fine_matches_the_single_level_mountain_pass(domain, resolution, s, warm):
    op = assemble(build_grid(domain, resolution), s)
    exps = ExponentPair(2.0, 2.0)
    pair = solve_system(op, exps)
    plain = mountain_pass(op, exps)
    assert pair.accepted and pair.method == "mountain_pass"
    assert np.max(np.abs(pair.u - plain.u)) <= 1e-10
    assert np.max(np.abs(pair.v - plain.v)) <= 1e-10
    levels = _levels(pair)
    assert [e["resolution"] for e in levels] == warm
    assert [e["n_nodes"] for e in levels] == [build_grid(domain, r).n_nodes for r in warm]
    assert all(e["outcome"] == "accepted" for e in levels)
    assert all(0 < e["newton_iters"] <= 5 and e["krylov"] > 0 for e in levels)
    newton = pair.trace[pair.trace.index(levels[-1]) + 1:]  # the fine level's run
    assert [e["stage"] for e in newton] == ["newton"] * (levels[-1]["newton_iters"] + 1)
    assert levels[-1]["krylov"] == sum(e["krylov"] for e in newton)


def _same_pair(a, b) -> bool:
    return (a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
            and (a.residual_u, a.residual_v, a.energy, a.method, a.iterations)
            == (b.residual_u, b.residual_v, b.energy, b.method, b.iterations))


def test_rejected_coarse_to_fine_falls_back_to_the_plain_mountain_pass(monkeypatch):
    # the fallback runs on the level's space, the symmetric subspace
    op = assemble(build_grid(Domain.interval(-1.0, 1.0), 128), 0.25)
    exps = ExponentPair(2.0, 2.0)
    space = op.reduced()
    plain = mountain_pass(space, exps)
    plain = dataclasses.replace(plain, u=space.expand(plain.u), v=space.expand(plain.v))
    # a vanishing start fails the trial's positivity test at once
    monkeypatch.setattr(fraclane.solvers, "interpolate",
                        lambda grid, u, points: np.zeros(len(points)))
    pair = solve_system(op, exps)
    assert _same_pair(pair, plain)
    assert pair.symmetry == space.symmetry == {"group_order": 2, "orbits": 64}
    assert pair.trace == [{"stage": "coarse_to_fine", "resolution": 128, "n_nodes": 128,
                           "outcome": "lost positivity at iteration 0",
                           "newton_iters": 0, "krylov": 0}] + plain.trace

    # a coarse level that fails is a rejection too
    monkeypatch.undo()
    single_level = fraclane.solvers.mountain_pass

    def failing_below(op, *args, **kwargs):
        if op.grid.resolution < 128:
            raise NonconvergenceError("coarse failure")
        return single_level(op, *args, **kwargs)

    monkeypatch.setattr(fraclane.solvers, "mountain_pass", failing_below)
    pair = solve_system(op, exps)
    assert _same_pair(pair, plain) and pair.symmetry == space.symmetry
    assert pair.trace[0]["outcome"] == "coarse level failed: coarse failure"
    assert pair.trace[1:] == plain.trace


def _recorded(monkeypatch, name):
    calls = []
    original = getattr(fraclane.solvers, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(fraclane.solvers, name, recording)
    return calls


def test_diagnostic_regimes_build_no_coarse_level(monkeypatch):
    op = assemble(build_grid(Domain.interval(-1.0, 1.0), 64), 0.25)
    grids = _recorded(monkeypatch, "build_grid")
    for exps in (ExponentPair(3.0, 3.0), ExponentPair(4.0, 4.0)):
        try:
            trace = solve_system(op, exps, SolverConfig(mp_sweeps=40)).trace
        except NonconvergenceError as exc:
            trace = exc.trace
        assert not any(e["stage"] == "coarse_to_fine" for e in trace)
    assert grids == []


def test_every_solve_builds_its_own_coarse_levels(monkeypatch):
    """Nothing is cached between calls, so a second start is independent."""
    op = assemble(build_grid(Domain.interval(-1.0, 1.0), 64), 0.25)
    operators = _recorded(monkeypatch, "assemble")
    first = solve_system(op, ExponentPair(2.0, 2.0))
    built = len(operators)
    second = solve_system(op, ExponentPair(2.0, 2.0), SolverConfig(init="random"))
    assert built == 2 and len(operators) == 2 * built  # levels 32 and 16, twice
    assert {id(o) for o in operators[:built]}.isdisjoint(id(o) for o in operators[built:])
    assert _same_pair(first, second)


def test_coarse_levels_are_assembled_like_the_fine_operator(monkeypatch):
    domain = Domain.interval(-1.0, 1.0)
    op = assemble(build_grid(domain, 64), 0.25, singular_correction=True)
    assert op.singular_correction
    operators = _recorded(monkeypatch, "assemble")
    solve_system(op, ExponentPair(2.0, 2.0))
    monkeypatch.undo()
    assert [o.grid.resolution for o in operators] == [32, 16]
    for coarse in operators:
        grid = build_grid(domain, coarse.grid.resolution)
        assert coarse.matrix.tobytes() == assemble(grid, 0.25, True).matrix.tobytes()
        assert coarse.matrix.tobytes() != assemble(grid, 0.25).matrix.tobytes()


# ---------------------------------------------------------------------------
# the forcing term of the Newton trials


def _gmres_tolerances(monkeypatch):
    """The relative tolerance of every GMRES solve, in call order."""
    rtols = []
    gmres = fraclane.solvers._gmres

    def recording(matvec, b, rtol):
        rtols.append(rtol)
        return gmres(matvec, b, rtol)

    monkeypatch.setattr(fraclane.solvers, "_gmres", recording)
    return rtols


def test_only_newton_trials_loosen_the_krylov_tolerance(setup64, monkeypatch):
    rtols = _gmres_tolerances(monkeypatch)
    op, u, v = _perturbed_superlinear_start(64)
    pair = newton_polish(op, u, v, ExponentPair(2.0, 2.0))
    assert pair.accepted and rtols
    assert rtols == [KRYLOV_RTOL] * len(rtols)
    assert [e["rtol"] for e in pair.trace] == [KRYLOV_RTOL] * len(pair.trace)

    # the critical and supercritical diagnostics make no trials, and every
    # step of their polishes keeps the fixed tolerance
    diagnostic = assemble(build_grid(Domain.interval(-1.0, 1.0), 64), 0.25)
    for exps in (ExponentPair(3.0, 3.0), ExponentPair(4.0, 4.0)):
        rtols.clear()
        try:
            mountain_pass(diagnostic, exps, SolverConfig(mp_sweeps=10))
        except NonconvergenceError:
            pass
        assert rtols and rtols == [KRYLOV_RTOL] * len(rtols)

    rtols.clear()
    pair = mountain_pass(setup64[1], ExponentPair(3.0, 3.0), SolverConfig(mp_sweeps=40))
    steps = [e["rtol"] for e in pair.trace if e["stage"] == "newton" and e["krylov"]]
    assert rtols == steps  # the one accepted trial made every GMRES solve
    assert all(KRYLOV_RTOL <= r <= FORCING_MAX for r in steps)
    assert steps[0] == FORCING_MAX and min(steps) < FORCING_MAX


def _without_orbits(domain, resolution):
    return dataclasses.replace(build_grid(domain, resolution), orbit=None)


@pytest.mark.parametrize("space, krylov", [
    ("full", [[(32, 3, 12), (64, 3, 15)], [(32, 3, 23), (64, 3, 23)]]),
    ("symmetric", [[(32, 3, 12), (64, 3, 14)], [(32, 3, 22), (64, 3, 22)]]),
], ids=["full", "symmetric"])
def test_forced_coarse_to_fine_trials_take_fewer_krylov_iterations_in_each_space(
        monkeypatch, space, krylov):
    # Levels 32 and 64 on (-1, 1) at s = 1/2, p = q = 2: each trial keeps its
    # 3 Newton steps, and GMRES drops from 23 + 23 to 12 + 15 iterations on
    # the grids' nodes.  On the symmetric subspace the trials with the fixed
    # tolerance, and the forced trial at 64, take one iteration less: GMRES
    # no longer meets the rounding-level antisymmetric part of the iterates.
    symmetric = space == "symmetric"
    if not symmetric:  # every level on its nodes
        monkeypatch.setattr(fraclane.solvers, "build_grid", _without_orbits)
    op = assemble((build_grid if symmetric else _without_orbits)(Domain.interval(-1.0, 1.0), 64),
                  0.5)
    exps = ExponentPair(2.0, 2.0)
    forced = solve_system(op, exps)
    monkeypatch.setattr(fraclane.solvers, "FORCING_MAX", 0.0)  # rtol = KRYLOV_RTOL
    fixed = solve_system(op, exps)
    counts = [[(e["resolution"], e["newton_iters"], e["krylov"]) for e in _levels(pair)]
              for pair in (forced, fixed)]
    assert counts == krylov
    assert forced.accepted and fixed.accepted
    assert (forced.symmetry is not None) == symmetric
    assert np.max(np.abs(forced.u - fixed.u)) <= 1e-12
    assert np.max(np.abs(forced.v - fixed.v)) <= 1e-12


def test_newton_polish_refuses_a_start_that_is_not_finite(setup64):
    _, op = setup64
    u = np.ones(op.n_nodes)
    for bad in (np.inf, np.nan):
        v = u.copy()
        v[3] = bad
        with pytest.raises(NonconvergenceError, match="not finite"):
            newton_polish(op, u, v, ExponentPair(2.0, 2.0))


# ---------------------------------------------------------------------------
# dispatch and determinism


def test_solve_system_dispatch(setup64):
    _, op = setup64
    sub = solve_system(op, ExponentPair(0.5, 0.5))
    assert sub.method == "minimize_sublinear"
    sup = solve_system(op, ExponentPair(3.0, 3.0))
    assert sup.method == "mountain_pass"
    with pytest.raises(ResonantProblemError):
        solve_system(op, ExponentPair(1.0, 1.0))
    # the pipelines reject the other regime's exponents
    with pytest.raises(ConfigurationError):
        minimize_sublinear(op, ExponentPair(3.0, 3.0))
    with pytest.raises(ConfigurationError):
        mountain_pass(op, ExponentPair(0.5, 0.5))


def test_solver_runs_are_bitwise_deterministic(setup64):
    _, op = setup64
    cfg = SolverConfig(seed=3, init="random")
    a = minimize_sublinear(op, ExponentPair(0.5, 0.5), cfg)
    b = minimize_sublinear(op, ExponentPair(0.5, 0.5), cfg)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert (a.residual_u, a.residual_v) == (b.residual_u, b.residual_v)
    assert a.energy.value == b.energy.value

    c = mountain_pass(op, ExponentPair(3.0, 3.0))
    d = mountain_pass(op, ExponentPair(3.0, 3.0))
    assert np.array_equal(c.u, d.u) and np.array_equal(c.v, d.v)


def test_solution_trace_is_populated(sublinear_pair_128, superlinear_pair_128):
    assert len(sublinear_pair_128.trace) > 0
    assert len(superlinear_pair_128.trace) > 0
