"""The symmetric subspace: orbits of the lattice group, the reduced operator
S = E^T A E, and the solves that run on it."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fraclane.solvers
import oracles
from fraclane import (
    Domain,
    ExponentPair,
    FractionalOperator,
    NonconvergenceError,
    SolverConfig,
    assemble,
    build_grid,
    mountain_pass,
    solve_system,
)

# (domain, resolution, group order): the interval, a 2:1 rectangle, a
# square, the centred and an off-centre disk
DOMAINS = [
    (Domain.interval(-1.0, 1.0), 64, 2),
    (Domain.rectangle(2.0, 1.0), 20, 4),
    (Domain.rectangle(1.0, 1.0, center=(0.2, 0.1)), 17, 8),
    (Domain.disk(1.0), 24, 8),
    (Domain.disk(0.7, center=(0.3, -0.2)), 23, 8),
]
IDS = ["interval", "rectangle", "square", "disk", "offcentre-disk"]
# the 2:1 rectangle at an odd resolution, whose orbits have 1, 2 and 4 nodes
ODD_RECTANGLE = (Domain.rectangle(2.0, 1.0), 25, 4)


def _full_space(grid):
    """The grid with its orbits dropped, as if its node set were not closed."""
    return dataclasses.replace(grid, orbit=None)


def _expansion(op):
    """The N x M orbit expansion E of a reduced operator, densely."""
    expansion = np.zeros((op.orbit.size, op.n_nodes))
    expansion[np.arange(op.orbit.size), op.orbit] = 1.0
    return expansion


@pytest.mark.parametrize("domain, resolution, order", DOMAINS, ids=IDS)
def test_orbits_partition_the_nodes_into_images_under_the_group(domain, resolution, order):
    grid = build_grid(domain, resolution)
    assert grid.group_order == order and grid.orbit is not None
    sizes = np.bincount(grid.orbit)
    assert set(sizes) <= {1, 2, 4, 8} and np.all(order % sizes == 0)
    # reflected nodes share an orbit; the representative is the smallest index
    flipped = {tuple(node): k for k, node in enumerate(resolution - 1 - grid.lattice)}
    for k, node in enumerate(grid.lattice):
        assert grid.orbit[flipped[tuple(node)]] == grid.orbit[k]
    assert np.array_equal(np.unique(grid.orbit, return_index=True)[1],
                          [np.flatnonzero(grid.orbit == j)[0] for j in range(len(sizes))])


@pytest.mark.parametrize("domain, resolution, order", DOMAINS, ids=IDS)
def test_reduced_matrix_is_the_folded_operator(domain, resolution, order):
    grid = build_grid(domain, resolution)
    op = assemble(grid, 0.5)
    reduced = op.reduced()
    s_mat, expansion = reduced.matrix, _expansion(reduced)
    assert isinstance(reduced, FractionalOperator)
    assert reduced.symmetry == {"group_order": order, "orbits": len(np.unique(grid.orbit))}
    assert np.array_equal(s_mat, s_mat.T)
    assert np.min(np.diag(s_mat)) > 0.0
    assert np.max(s_mat - np.diag(np.diag(s_mat))) <= 0.0
    assert np.min(s_mat.sum(axis=1)) > 0.0
    want = expansion.T @ op.matrix @ expansion
    assert np.max(np.abs(s_mat - want)) <= 1e-13 * np.max(np.abs(want))
    assert reduced.scale == op.scale
    assert np.array_equal(reduced.grid.weights, grid.weights[reduced.rep] * reduced.grid.multiplicity)

    x = np.random.default_rng(1).uniform(-1.0, 1.0, reduced.n_nodes)
    full = reduced.restrict(op.apply(reduced.expand(x)))
    assert np.max(np.abs(reduced.apply(x) - full)) <= 1e-14 * np.max(np.abs(full))
    stack = np.stack([x, 2.0 * x])
    assert np.array_equal(reduced.apply(stack)[1], reduced.apply(2.0 * x))
    solved = reduced.restrict(op.solve(reduced.expand(x)))
    assert np.max(np.abs(reduced.solve(x) - solved)) <= 1e-13 * np.max(np.abs(solved))


@pytest.mark.parametrize("domain, resolution, order", DOMAINS + [ODD_RECTANGLE],
                         ids=IDS + ["odd-rectangle"])
def test_the_fold_is_bitwise_the_fold_of_whole_rows(domain, resolution, order):
    grid = build_grid(domain, resolution)
    op = assemble(grid, 0.5)
    assert grid.group_order == order
    assert np.array_equal(op.reduced().matrix, oracles.folded_matrix(op))
    if resolution == ODD_RECTANGLE[1]:
        assert set(np.bincount(grid.orbit)) == {1, 2, 4}


def test_the_fold_reads_the_table_on_and_above_the_diagonal_only(monkeypatch):
    # a row block is gathered over the orbits from its first one on: about
    # half of the M x N entries that whole rows would read
    op = assemble(build_grid(Domain.disk(1.0), 128), 0.5)
    take, read = np.take, []

    def counting(a, indices, *args, **kwargs):
        if a is op.table:
            read.append(np.size(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", counting)
    reduced = op.reduced()
    assert 0 < sum(read) <= 0.55 * reduced.n_nodes * op.n_nodes


def test_reduced_form_never_builds_the_full_matrix():
    op = assemble(build_grid(Domain.disk(1.0), 40), 0.5)
    reduced = op.reduced()
    assert op._matrix is None and op._factor is None
    assert reduced.matrix.shape == (165, 165) and reduced._factor is not None


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (2.0, 2.0)], ids=["sublinear", "subcritical"])
@pytest.mark.parametrize("domain, resolution, order", DOMAINS, ids=IDS)
def test_reduced_solve_matches_the_full_space_solve(domain, resolution, order, p, q):
    grid = build_grid(domain, resolution)
    exps = ExponentPair(p, q)
    reduced = solve_system(assemble(grid, 0.5), exps)
    full = solve_system(assemble(_full_space(grid), 0.5), exps)
    assert reduced.accepted and full.accepted
    assert reduced.symmetry == {"group_order": order, "orbits": len(np.unique(grid.orbit))}
    assert full.symmetry is None
    assert reduced.u.shape == full.u.shape == (grid.n_nodes,)
    assert np.max(np.abs(reduced.u - full.u)) <= 1e-10
    assert np.max(np.abs(reduced.v - full.v)) <= 1e-10
    assert reduced.energy.value == pytest.approx(full.energy.value, rel=1e-12)


def test_a_node_set_that_is_not_closed_stays_in_the_full_space(monkeypatch):
    """The disk's interior test runs in floating point, so closure is checked
    when the grid is built; a node set that is not closed solves in full."""
    contains = Domain.contains

    def without_first_node(self, pts):
        inside = contains(self, pts)
        inside[np.flatnonzero(inside)[0]] = False
        return inside

    monkeypatch.setattr(Domain, "contains", without_first_node)
    grid = build_grid(Domain.disk(1.0), 16)
    monkeypatch.undo()
    assert grid.orbit is None and grid.n_nodes == build_grid(Domain.disk(1.0), 16).n_nodes - 1
    op = assemble(grid, 0.5)
    assert op.reduced() is op  # nothing to reduce
    reduced = assemble(build_grid(Domain.disk(1.0), 16), 0.5).reduced()
    assert reduced.reduced() is reduced  # a reduced form's grid has no orbits either
    for exps in (ExponentPair(0.5, 0.5), ExponentPair(2.0, 2.0)):
        pair = solve_system(op, exps)
        assert pair.accepted and pair.symmetry is None


def test_an_operator_given_by_its_matrix_stays_in_the_full_space():
    # nothing says a given matrix commutes with the group
    grid = build_grid(Domain.interval(-1.0, 1.0), 32)
    given = FractionalOperator(grid, 0.5, assemble(grid, 0.5).matrix)
    assert given.reduced() is given
    pair = solve_system(given, ExponentPair(0.5, 0.5))
    assert pair.accepted and pair.symmetry is None


def test_a_rejected_level_falls_back_on_the_subspace_of_the_disk(monkeypatch):
    """The plain mountain pass after a rejected coarse-to-fine level runs on
    the 165 orbits of the disk at res 40, agrees with the full-space
    mountain pass to rounding, and gathers no N x N matrix of the grid."""
    grid = build_grid(Domain.disk(1.0), 40)
    op, exps = assemble(grid, 0.5), ExponentPair(2.0, 2.0)
    # a vanishing start fails the trial's positivity test at once
    monkeypatch.setattr(fraclane.solvers, "interpolate",
                        lambda grid, u, points: np.zeros(len(points)))
    tracemalloc.start()
    try:
        pair = solve_system(op, exps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.accepted and pair.trace[0]["outcome"] == "lost positivity at iteration 0"
    assert pair.symmetry == {"group_order": 8, "orbits": 165}
    assert peak < grid.n_nodes ** 2 * 8
    full = mountain_pass(op, exps)
    assert np.max(np.abs(pair.u - full.u)) <= 1e-10
    assert np.max(np.abs(pair.v - full.v)) <= 1e-10


def test_a_random_start_never_reduces(monkeypatch):
    grid = build_grid(Domain.disk(1.0), 16)
    exps = ExponentPair(0.5, 0.5)
    calls = []
    reduced = FractionalOperator.reduced

    def counting(self):
        calls.append(self)
        return reduced(self)

    monkeypatch.setattr(FractionalOperator, "reduced", counting)
    bump = solve_system(assemble(grid, 0.5), exps)
    assert bump.symmetry == {"group_order": 8, "orbits": 29} and len(calls) == 1
    for seed in (0, 1):
        pair = solve_system(assemble(grid, 0.5), exps, SolverConfig(init="random", seed=seed))
        assert pair.accepted and pair.symmetry is None
        assert np.max(np.abs(pair.u - bump.u)) <= 1e-10
    assert len(calls) == 1


@pytest.mark.parametrize("p, q", [(3.0, 3.0), (4.0, 4.0)], ids=["critical", "supercritical"])
def test_diagnostic_solve_is_the_full_space_mountain_pass_bitwise(p, q):
    op = assemble(build_grid(Domain.interval(-1.0, 1.0), 64), 0.25)
    exps, cfg = ExponentPair(p, q), SolverConfig(mp_sweeps=40)
    outcomes = []
    for solver in (solve_system, mountain_pass):
        try:
            pair = solver(op, exps, cfg)
            outcomes.append((pair.u.tobytes(), pair.v.tobytes(), pair.energy, pair.iterations,
                             pair.symmetry))
        except NonconvergenceError as exc:
            outcomes.append((str(exc), repr(exc.trace)))  # the trace holds nan
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0]) == 2 or outcomes[0][-1] is None
