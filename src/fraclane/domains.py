"""Bounded domains in 1D/2D and the uniform cell-centered grids built on them.

A grid covers the domain's bounding box with `resolution` equal cells per
axis; the unknowns live at the centers of the cells whose center lies
strictly inside the domain.  Functions on a grid are plain numpy arrays with
one value per interior node, implicitly zero everywhere outside the domain.
All geometric quantities that analysis is sensitive to (boundary distance,
boundary parametrization) are computed from the exact domain geometry, never
from the lattice.

Intervals and rectangles are axis-aligned boxes in 1D and 2D: one box path
gives their geometry and boundary trace; only the disk has its own.

Every domain is symmetric under the lattice group of its box: the
reflections i -> resolution-1-i per axis, plus the axis swap where the cells
are square.  A grid records each node's orbit under the group when its node
set is closed under it, so that symmetric functions can be solved for on one
node per orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError

MIN_RESOLUTION = 8

# the keys each kind takes; a key of another kind is an error, not ignored
_KEYS = {"interval": ("endpoints",), "rectangle": ("sides", "center"), "disk": ("radius", "center")}


@dataclass(frozen=True)
class Domain:
    """A bounded open set: an interval, an axis-aligned rectangle, or a disk.

    kind: one of 'interval', 'rectangle', 'disk'.
    endpoints: (a, b) for intervals.
    sides: (length_x, length_y) for rectangles.
    radius: disk radius.
    center: center point (2 coordinates, default the origin; the interval
        center is derived from its endpoints and must not be supplied).
    Supplying a key of another kind is a ConfigurationError.

    bounding_box: ((lo, hi) per axis), derived; an interval or a rectangle
    is this box, and its geometry is read from it.
    """

    kind: str
    endpoints: tuple | None = None
    sides: tuple | None = None
    radius: float | None = None
    center: tuple | None = None
    bounding_box: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KEYS:
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        foreign = [key for key in ("endpoints", "sides", "radius", "center")
                   if key not in _KEYS[self.kind] and getattr(self, key) is not None]
        if foreign:
            raise ConfigurationError(f"{self.kind} does not take {', '.join(foreign)}")
        if self.kind == "interval":
            if self.endpoints is None or len(self.endpoints) != 2:
                raise ConfigurationError("interval needs endpoints=(a, b)")
            a, b = map(float, self.endpoints)
            if not b > a:
                raise ConfigurationError("interval endpoints must satisfy a < b")
            object.__setattr__(self, "endpoints", (a, b))
            object.__setattr__(self, "center", ((a + b) / 2.0,))
            object.__setattr__(self, "bounding_box", ((a, b),))
            return
        if self.kind == "rectangle":
            if self.sides is None or len(self.sides) != 2:
                raise ConfigurationError("rectangle needs sides=(lx, ly)")
            lx, ly = map(float, self.sides)
            if lx <= 0 or ly <= 0:
                raise ConfigurationError("rectangle sides must be positive")
            object.__setattr__(self, "sides", (lx, ly))
            half = (lx / 2, ly / 2)
        else:
            if self.radius is None or float(self.radius) <= 0:
                raise ConfigurationError("disk needs a positive radius")
            object.__setattr__(self, "radius", float(self.radius))
            half = (self.radius, self.radius)
        c = (0.0, 0.0) if self.center is None else tuple(map(float, self.center))
        if len(c) != 2:
            raise ConfigurationError(f"{self.kind} center needs 2 coordinates")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "bounding_box", tuple((x - w, x + w) for x, w in zip(c, half)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        return Domain("interval", endpoints=(a, b))

    @staticmethod
    def rectangle(lx: float, ly: float, center=(0.0, 0.0)) -> "Domain":
        return Domain("rectangle", sides=(lx, ly), center=center)

    @staticmethod
    def disk(radius: float, center=(0.0, 0.0)) -> "Domain":
        return Domain("disk", radius=radius, center=center)

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.bounding_box)

    def is_star_shaped_wrt_origin(self) -> bool:
        """True iff x . nu(x) > 0 at every boundary point.

        For these three kinds that is equivalent to the origin lying in the
        open interior.
        """
        if self.kind == "disk":
            cx, cy = self.center
            return (cx * cx + cy * cy) ** 0.5 < self.radius
        return all(lo < 0.0 < hi for lo, hi in self.bounding_box)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Strict interior test for an (N, dim) array (or (N,) in 1D)."""
        pts = np.asarray(pts, dtype=float).reshape(len(pts), self.dim)
        if self.kind == "disk":
            # squared radius, not a distance: nodes on the circle stay outside
            dx = pts[:, 0] - self.center[0]
            dy = pts[:, 1] - self.center[1]
            return dx * dx + dy * dy < self.radius**2
        return np.logical_and.reduce([(x > lo) & (x < hi)
                                      for x, (lo, hi) in zip(pts.T, self.bounding_box)])

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Exact Euclidean distance to the boundary (for interior points)."""
        pts = np.asarray(pts, dtype=float).reshape(len(pts), self.dim)
        if self.kind == "disk":
            return self.radius - np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
        return np.minimum.reduce([np.minimum(x - lo, hi - x)
                                  for x, (lo, hi) in zip(pts.T, self.bounding_box)])


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a domain's bounding box.

    x: interior node coordinates, shape (N, dim).
    lattice: integer cell indices of the interior nodes, shape (N, dim).
    h: cell size per axis.
    d: exact distance from each node to the domain boundary, shape (N,).
    weights: quadrature weight per node, cell volume times multiplicity, shape (N,).
    multiplicity: lattice nodes per node, shape (N,): 1, or the orbit size
        on a grid of orbit representatives (`FractionalOperator.reduced`).
    orbit: each node's orbit under the lattice group, numbered by its
        smallest node index, shape (N,); None on a grid of representatives
        and when the node set is not closed under the group (the disk's
        interior test runs in floating point).
    """

    domain: Domain
    resolution: int
    h: tuple
    axes: tuple
    lattice: np.ndarray
    x: np.ndarray
    d: np.ndarray
    weights: np.ndarray = field(repr=False)
    multiplicity: np.ndarray = field(repr=False)
    orbit: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def group_order(self) -> int:
        """The lattice group's order: 2 per axis, 2 more for a swap of square cells."""
        return 2 ** self.dim * (2 if self.dim == 2 and self.h[0] == self.h[1] else 1)

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]

    # -- integrals of grid functions ----------------------------------------

    def integrate(self, u: np.ndarray) -> float:
        return float(np.sum(self.weights * u))


def build_grid(domain: Domain, resolution: int) -> Grid:
    """Lay `resolution` cells per axis over the bounding box and keep the
    cell centers that fall strictly inside the domain."""
    if int(resolution) != resolution or resolution < MIN_RESOLUTION:
        raise ConfigurationError(
            f"resolution must be an integer >= {MIN_RESOLUTION}, got {resolution}"
        )
    resolution = int(resolution)
    box = domain.bounding_box
    h = tuple((hi - lo) / resolution for lo, hi in box)
    axes = tuple(lo + (np.arange(resolution) + 0.5) * step for (lo, _), step in zip(box, h))
    lattice = np.indices((resolution,) * domain.dim).reshape(domain.dim, -1).T
    x = np.stack([axis[index] for axis, index in zip(axes, lattice.T)], axis=1)
    keep = domain.contains(x)
    lattice, x = lattice[keep], x[keep]
    if x.shape[0] == 0:
        raise ConfigurationError("no grid node falls inside the domain")
    d = domain.boundary_distance(x)
    weights = np.full(x.shape[0], float(np.prod(h)))
    grid = Grid(domain, resolution, h, axes, lattice, x, d, weights, np.ones(x.shape[0]))
    return replace(grid, orbit=_orbits(grid))


def _orbits(grid: Grid) -> np.ndarray | None:
    """Each node's orbit under the lattice group (`Grid.orbit`); None if an image is no node."""
    res, lattice = grid.resolution, grid.lattice
    images = [np.where(flip, res - 1 - lattice, lattice)
              for flip in itertools.product((False, True), repeat=grid.dim)]
    if grid.group_order > len(images):  # the swap, composed with each reflection
        images += [image[:, ::-1] for image in images]
    node = np.full((res,) * grid.dim, -1)  # the node at each cell of the box
    node[tuple(lattice.T)] = np.arange(grid.n_nodes)
    image_nodes = np.stack([node[tuple(image.T)] for image in images])
    if np.any(image_nodes < 0):
        return None
    return np.unique(np.min(image_nodes, axis=0), return_inverse=True)[1]


def interpolate(grid: Grid, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation, at `points` of shape (..., dim), of the grid
    function u extended by zero to the bounding-box lattice and to one layer
    of lattice nodes around it; the result has shape points.shape[:-1].

    A point whose surrounding lattice nodes all lie in the domain gets the
    value of a function linear in each axis up to rounding, and a point more
    than half a cell outside the box gets 0 (the zero layer lies half a cell
    outside).  The corners are summed with axis 0 varying fastest, each
    weight the product of its per-axis factors, so every value is bitwise
    that of a point-by-point evaluation.
    """
    res = grid.resolution
    full = np.zeros((res + 2,) * grid.dim)  # the box lattice inside one layer of zeros
    full[tuple(grid.lattice.T + 1)] = u
    index, frac = [], []
    for axis, (lo, _) in enumerate(grid.domain.bounding_box):
        t = (points[..., axis] - lo) / grid.h[axis] - 0.5
        index.append(np.floor(t).astype(int))
        frac.append(t - index[-1])
    values = 0.0
    for corner in itertools.product((0, 1), repeat=grid.dim):
        corner = corner[::-1]  # axis 0 varies fastest
        weight = 1.0
        for f, c in zip(frac, corner):
            weight = weight * (f if c else 1 - f)
        node = full[tuple(np.clip(i + c + 1, 0, res + 1) for i, c in zip(index, corner))]
        values = values + weight * node
    return values


@dataclass(frozen=True)
class BoundaryTrace:
    """Sampled boundary parametrization for surface integrals.

    points/normals: (B, dim); weights: (B,) with sum -> |boundary|;
    x_dot_nu: (B,) inner product of the point with its outward normal;
    corners_dropped: True when the parametrization omits corner points
    (boxes of dimension 2), where the normal is not defined.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    x_dot_nu: np.ndarray
    corners_dropped: bool


def boundary_trace(grid: Grid) -> BoundaryTrace:
    """Exact boundary parametrization with per-point outward normals.

    Box (interval or rectangle): each face sampled at the cell centers
    across it, each point weighted by the product of the cell sizes across
    the face, so an interval's faces are its two endpoints with unit weight
    (the empty product) and a rectangle's corners never appear.  Disk:
    max(256, 4*resolution) equal arcs.
    """
    dom = grid.domain
    if dom.kind == "disk":
        m = max(256, 4 * grid.resolution)
        th = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
        nrm = np.stack([np.cos(th), np.sin(th)], axis=1)
        pts = np.asarray(dom.center) + dom.radius * nrm
        wts = np.full(m, dom.radius * 2.0 * np.pi / m)
    else:
        faces = []
        for axis, ends in enumerate(dom.bounding_box):
            across = math.prod((h for k, h in enumerate(grid.h) if k != axis), start=1.0)
            for end, sign in zip(ends, (-1.0, 1.0)):
                face = np.array(list(itertools.product(
                    *([end] if k == axis else a for k, a in enumerate(grid.axes)))))
                normal = np.zeros_like(face)
                normal[:, axis] = sign
                faces.append((face, normal, np.full(len(face), across)))
        pts, nrm, wts = map(np.concatenate, zip(*faces))
    xdn = np.sum(pts * nrm, axis=1)
    return BoundaryTrace(pts, nrm, wts, xdn, corners_dropped=dom.kind != "disk" and dom.dim > 1)
