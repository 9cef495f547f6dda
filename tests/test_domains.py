"""Geometry layer: domains, grids, boundary traces."""

import numpy as np
import pytest

import oracles
from fraclane import (
    ConfigurationError,
    Domain,
    boundary_trace,
    build_grid,
    interpolate,
)


# ---------------------------------------------------------------------------
# domains


def test_interval_basic_geometry():
    dom = Domain.interval(-1.0, 1.0)
    assert dom.dim == 1
    assert dom.is_star_shaped_wrt_origin()


def test_offset_interval_not_star_shaped():
    assert not Domain.interval(0.5, 2.0).is_star_shaped_wrt_origin()
    assert Domain.interval(-0.25, 3.0).is_star_shaped_wrt_origin()


def test_rectangle_and_disk_geometry():
    rect = Domain.rectangle(2.0, 1.0)
    assert rect.dim == 2
    assert rect.is_star_shaped_wrt_origin()
    assert not Domain.rectangle(2.0, 1.0, center=(5.0, 0.0)).is_star_shaped_wrt_origin()

    assert Domain.disk(1.0, center=(0.5, 0.0)).is_star_shaped_wrt_origin()
    assert not Domain.disk(1.0, center=(2.0, 0.0)).is_star_shaped_wrt_origin()


def test_invalid_domains_rejected():
    with pytest.raises(ConfigurationError):
        Domain.interval(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Domain.disk(-2.0)
    with pytest.raises(ConfigurationError):
        Domain.rectangle(0.0, 1.0)


def test_only_a_missing_center_means_the_origin():
    for center in ([], (), (0.0,), (0.0, 0.0, 0.0)):
        for kind, size in (("disk", {"radius": 1.0}), ("rectangle", {"sides": (2.0, 1.0)})):
            with pytest.raises(ConfigurationError, match=f"{kind} center needs 2 coordinates"):
                Domain(kind, center=center, **size)
    assert Domain("disk", radius=1.0).center == (0.0, 0.0)


def test_geometry_beyond_the_float_range_rejected():
    """The geometry is computed in squares (the disk's interior test, the
    bump start, the kernel's powers of the cell widths): a domain with a
    squared coordinate beyond the float range, or a squared width below its
    normal numbers, is refused where it is made."""
    for kind, size in (("interval", {"endpoints": (0.0, 1e300)}),
                       ("rectangle", {"sides": (1e200, 1e200)}),
                       ("rectangle", {"sides": (1e-160, 1e-160)}),
                       ("disk", {"radius": 1e200}),
                       ("disk", {"radius": float("inf")}),
                       ("disk", {"radius": 1.0, "center": (1e160, 0.0)}),
                       ("disk", {"radius": 1.0, "center": (float("nan"), 0.0)})):
        with pytest.raises(ConfigurationError, match="leaves the float range when squared"):
            Domain(kind, **size)
    # the sizes inside the range stay domains
    assert Domain.rectangle(1e150, 1e150).bounding_box == ((-5e149, 5e149),) * 2
    assert Domain.interval(0.0, 1e-150).bounding_box == ((0.0, 1e-150),)


def test_keys_of_another_kind_rejected():
    for kwargs in ({"kind": "disk", "radius": 1.0, "sides": [5, 5], "endpoints": [0, 3]},
                   {"kind": "interval", "endpoints": (0.0, 1.0), "center": (0.5,)},
                   {"kind": "interval", "endpoints": (0.0, 1.0), "radius": 1.0},
                   {"kind": "rectangle", "sides": (2.0, 1.0), "radius": 1.0}):
        with pytest.raises(ConfigurationError, match="does not take"):
            Domain(**kwargs)
    # every stored value is a tuple or a float, so domains hash and compare
    rect = Domain("rectangle", sides=[2, 1], center=[0, 0])
    assert hash(rect) == hash(Domain.rectangle(2.0, 1.0))
    assert {Domain("interval", endpoints=[0, 3]), Domain.disk(1.0)} == {
        Domain.interval(0.0, 3.0), Domain("disk", radius=1, center=[0, 0])}

def test_contains_is_strict():
    dom = Domain.interval(-1.0, 1.0)
    pts = np.array([[-1.0], [-0.999], [0.0], [1.0], [1.5]])
    assert list(dom.contains(pts)) == [False, True, True, False, False]
    disk = Domain.disk(1.0)
    pts2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.6, 0.6], [0.8, 0.0]])
    assert list(disk.contains(pts2)) == [True, False, True, True]


def test_boundary_distance_matches_hand_values():
    dom = Domain.interval(-1.0, 1.0)
    pts = np.array([[-0.875], [0.0], [0.6]])
    assert dom.boundary_distance(pts) == pytest.approx([0.125, 1.0, 0.4])

    disk = Domain.disk(2.0, center=(1.0, 0.0))
    pts2 = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert disk.boundary_distance(pts2) == pytest.approx([2.0, 1.0])

    rect = Domain.rectangle(2.0, 1.0)
    pts3 = np.array([[0.0, 0.0], [0.9, 0.4], [-0.7, 0.1]])
    assert rect.boundary_distance(pts3) == pytest.approx([0.5, 0.1, 0.3])


# ---------------------------------------------------------------------------
# grids


def test_interval_grid_nodes_are_cell_centers():
    grid = build_grid(Domain.interval(-1.0, 1.0), 8)
    assert grid.h == (0.25,)
    expected = -1.0 + (np.arange(8) + 0.5) * 0.25
    assert grid.x[:, 0] == pytest.approx(expected)
    assert grid.d == pytest.approx(np.minimum(expected + 1.0, 1.0 - expected))
    assert grid.weights == pytest.approx(np.full(8, 0.25))
    assert grid.integrate(np.ones(8)) == pytest.approx(2.0)


def test_grid_below_minimum_resolution_rejected():
    with pytest.raises(ConfigurationError):
        build_grid(Domain.interval(-1.0, 1.0), 5)


def test_grid_interior_distance_positive():
    for dom in (Domain.interval(-1.0, 1.0), Domain.disk(1.0), Domain.rectangle(2.0, 1.0)):
        grid = build_grid(dom, 16)
        assert np.all(grid.d > 0)
        assert np.all(dom.contains(grid.x))


def test_disk_volume_error_shrinks_monotonically():
    errors = []
    for res in (16, 32, 64):
        grid = build_grid(Domain.disk(1.0), res)
        errors.append(abs(grid.weights.sum() - np.pi))
    assert errors[0] > errors[1] > errors[2]


def test_rectangle_cells_tile_exactly():
    grid = build_grid(Domain.rectangle(2.0, 1.0), 16)
    assert grid.weights.sum() == pytest.approx(2.0, rel=1e-12)
    assert grid.h == pytest.approx((0.125, 0.0625))


# ---------------------------------------------------------------------------
# boundary traces


def test_interval_trace_is_two_endpoints():
    grid = build_grid(Domain.interval(-1.0, 1.0), 16)
    tr = boundary_trace(grid)
    assert sorted(tr.points[:, 0]) == pytest.approx([-1.0, 1.0])
    assert tr.weights == pytest.approx([1.0, 1.0])
    assert tr.x_dot_nu == pytest.approx([1.0, 1.0])
    assert not tr.corners_dropped


def test_disk_trace_weights_sum_to_perimeter():
    grid = build_grid(Domain.disk(1.0), 32)
    tr = boundary_trace(grid)
    assert tr.points.shape[0] >= 256
    assert tr.weights.sum() == pytest.approx(2 * np.pi, rel=1e-2)
    assert np.linalg.norm(tr.normals, axis=1) == pytest.approx(np.ones(len(tr.points)))
    assert tr.x_dot_nu == pytest.approx(np.ones(len(tr.points)))


def test_rectangle_trace_avoids_corners():
    grid = build_grid(Domain.rectangle(2.0, 1.0), 16)
    tr = boundary_trace(grid)
    assert tr.corners_dropped
    assert tr.weights.sum() == pytest.approx(6.0, rel=1e-12)
    corner_like = (np.abs(np.abs(tr.points[:, 0]) - 1.0) < 1e-12) & (
        np.abs(np.abs(tr.points[:, 1]) - 0.5) < 1e-12)
    assert not corner_like.any()
    assert np.all(tr.x_dot_nu > 0)  # centered rectangle is star-shaped


def test_offcenter_trace_x_dot_nu_sign():
    grid = build_grid(Domain.disk(1.0, center=(0.5, 0.0)), 16)
    tr = boundary_trace(grid)
    # star-shaped with respect to the origin, so x . nu stays positive
    assert grid.domain.is_star_shaped_wrt_origin()
    assert np.all(tr.x_dot_nu > 0)


# ---------------------------------------------------------------------------
# interpolation of grid functions


def test_interpolation_reproduces_functions_linear_in_each_axis():
    grid = build_grid(Domain.rectangle(2.0, 1.0, center=(0.3, -0.2)), 20)
    (x0, x1), (y0, y1) = grid.domain.bounding_box
    hx, hy = grid.h

    def f(pts):
        return 0.7 - 1.3 * pts[..., 0] + 0.4 * pts[..., 1] + 0.9 * pts[..., 0] * pts[..., 1]

    rng = np.random.default_rng(5)
    # one cell or more inside the boundary every surrounding node is a grid node
    inner = np.stack([rng.uniform(x0 + hx, x1 - hx, 400), rng.uniform(y0 + hy, y1 - hy, 400)],
                     axis=1)
    for pts in (inner, grid.x[grid.d >= min(grid.h)], inner.reshape(20, 20, 2)):
        assert np.max(np.abs(interpolate(grid, f(grid.x), pts) - f(pts))) <= 1e-14
    # more than half a cell outside the box only the zero layer is in reach
    outside = np.array([[x0 - 0.6 * hx, 0.0], [x1 + 0.6 * hx, 0.1], [0.3, y0 - 0.6 * hy],
                        [0.3, y1 + 3.0], [x0 - 7.0, y1 + 7.0], [x1 + 0.6 * hx, y0 - 0.6 * hy]])
    assert not np.any(interpolate(grid, np.ones(grid.n_nodes), outside))


@pytest.mark.parametrize("domain, res", [
    (Domain.interval(-1.0, 1.0), 256),
    (Domain.rectangle(2.0, 1.0), 17),
    (Domain.disk(1.0), 33),
    (Domain.disk(1.0, center=(0.3, -0.2)), 24),
])
def test_interpolation_matches_the_point_by_point_ray_sampler_bitwise(domain, res):
    """The grids and profile of the boundary-fit oracle test, sampled along
    the quotient fit's rays one ray at a time by the oracle."""
    grid = build_grid(domain, res)
    tr = boundary_trace(grid)
    u = grid.d ** 0.5 * (1.0 + 0.3 * grid.x[:, 0])
    full = oracles._box_values(grid, u)
    dist = (np.arange(2, max(12, round(1.2 * np.sqrt(res))) + 1) - 0.5) * min(grid.h)
    for point, normal in zip(tr.points, tr.normals):
        pts = point[None, :] - dist[:, None] * normal[None, :]
        ref = (oracles._interp1(grid, full, pts[:, 0]) if grid.dim == 1
               else oracles._interp2(grid, full, pts))
        assert interpolate(grid, u, pts).tobytes() == ref.tobytes()
