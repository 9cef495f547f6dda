"""Solver pipelines: initial states, Newton finishing, direct minimization,
path deformation, dispatch, and determinism."""

import numpy as np
import pytest

import oracles
from fraclane import (
    ConfigurationError,
    Domain,
    ExponentPair,
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


@pytest.fixture(scope="module")
def setup64():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    return grid, assemble(grid, 0.5)


# ---------------------------------------------------------------------------
# initial states


def test_initial_guess_kinds(setup64):
    grid, _ = setup64
    zero = initial_guess(grid, SolverConfig(init="zero"))
    assert not zero.any()

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

    vals = np.linspace(0.1, 0.9, grid.n_nodes)
    sup = initial_guess(grid, SolverConfig(init="supplied", init_values=vals))
    assert np.array_equal(sup, vals)
    sup[0] = 99.0
    assert vals[0] != 99.0  # the guess is a copy


def test_initial_guess_errors(setup64):
    grid, _ = setup64
    with pytest.raises(ConfigurationError):
        initial_guess(grid, SolverConfig(init="supplied"))
    with pytest.raises(ConfigurationError):
        initial_guess(grid, SolverConfig(init="supplied", init_values=np.ones(3)))
    with pytest.raises(ConfigurationError):
        initial_guess(grid, SolverConfig(init="nope"))


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


def test_minimize_matches_fixed_point_oracle(sublinear_pair_128, op128):
    u_ref, v_ref = oracles.fixed_point_solution(op128, 0.5, 0.5)
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


def test_minimize_hands_off_to_newton_early(sublinear_pair_128):
    cfg = SolverConfig()
    pair = sublinear_pair_128
    descent = [e for e in pair.trace if e["stage"].startswith("descent")]
    assert len(descent) <= 40
    per_stage = cfg.max_iter // len(cfg.smoothing_schedule)
    for eps in cfg.smoothing_schedule:
        assert sum(e["stage"] == f"descent_eps={eps:g}" for e in descent) < per_stage
    handoffs = _handoffs(pair)
    assert [h["outcome"] for h in handoffs].count("accepted") == 1
    assert handoffs[-1]["outcome"] == "accepted"
    assert handoffs[-1]["iter"] == len(descent)


def test_minimize_2d_asymmetric_random_start_falls_back_then_hands_off():
    # p < 1 < q on a rectangle: early Newton trials from a random start
    # leave the positive cone and the descent has to resume.
    grid = build_grid(Domain.rectangle(2.0, 1.0), 16)
    op = assemble(grid, 0.5)
    exps = ExponentPair(0.25, 2.0)
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


def test_minimize_zero_start_is_reported_not_accepted(setup64):
    _, op = setup64
    with pytest.raises(NonconvergenceError):
        minimize_sublinear(op, ExponentPair(0.5, 0.5), SolverConfig(init="zero"))


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
    with pytest.raises(ConfigurationError):
        solve_system(op, ExponentPair(0.5, 0.5), solver="mountain_pass")
    with pytest.raises(ConfigurationError):
        solve_system(op, ExponentPair(2.0, 2.0), solver="nope")


def test_forced_solver_choice(setup64):
    _, op = setup64
    forced = solve_system(op, ExponentPair(0.5, 0.5), solver="sublinear")
    assert forced.method == "minimize_sublinear"
    forced2 = solve_system(op, ExponentPair(4.0, 4.0), solver="mountain_pass")
    assert forced2.method == "mountain_pass"


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
