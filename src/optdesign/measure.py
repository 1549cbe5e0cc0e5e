"""Design spaces, grids, weight functions, and discrete designs.

A design space is a compact set together with a finite evaluation grid.
Grids cluster points where optimal designs concentrate: Chebyshev maps on
intervals and cubes, radially graded shells on balls and the complex disk,
a barycentric lattice on simplices.  Designs are finitely supported
probability measures stored as (points, weights) arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .basis import PolyBasis, as_points, eval_basis_many, monomial_basis, space_dimension, stabilized_basis

_ATOM_TOL = 1e-12  # two atoms closer than this are considered identical
_SUM_TOL = 1e-9  # admissible drift of a weight vector's total mass


# ---------------------------------------------------------------------------
# point sets


def _real_coordinates(pts: np.ndarray) -> np.ndarray:
    """(m, d) complex points as (m, 2d) real ones: real and imaginary parts."""
    return np.ascontiguousarray(pts).view(np.float64)


def _point_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distance max_k |a_k - b_k| between (m, d) complex point sets."""
    return np.max(np.abs(a - b), axis=1)


def _require_distinct(pts: np.ndarray, tol: float, what: str) -> None:
    """Raise ValueError naming the closest pair of points within ``tol``.

    Distance is max over coordinates of |z_k - z'_k|, which is never below
    the max-norm distance of the real coordinates, so one k-d tree query at
    radius ``tol`` finds every candidate pair.
    """
    pairs = cKDTree(_real_coordinates(pts)).query_pairs(tol, p=np.inf, output_type="ndarray")
    if not len(pairs):
        return
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    dist = _point_distance(pts[pairs[:, 0]], pts[pairs[:, 1]])
    k = int(np.argmin(dist))
    if dist[k] <= tol:
        i, j = pairs[k]
        raise ValueError(f"{what} {i} and {j} coincide" + (f" within {tol}" if tol else ""))


# ---------------------------------------------------------------------------
# design spaces


@dataclass(frozen=True)
class DesignSpace:
    """A compact design space with a finite evaluation grid.

    ``grid`` has shape (m, d) and complex dtype; real spaces carry zero
    imaginary parts.  ``membership`` decides whether a point belongs to the
    underlying continuum set (used for validation, not for optimization).
    """

    kind: str
    dimension: int
    a: float
    grid: np.ndarray
    membership: Callable[[np.ndarray], bool]
    params: dict = field(default_factory=dict)

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def contains(self, z) -> bool:
        pt = as_points(z, self.dimension)[0]
        return bool(self.membership(pt))

    @property
    def is_complex(self) -> bool:
        return bool(np.any(np.abs(self.grid.imag) > 0))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def interval(a: float = 1.0, grid: int = 401, spacing: str = "chebyshev") -> DesignSpace:
    """The interval [-a, a] with a Chebyshev-mapped (or uniform) grid."""
    if a <= 0:
        raise ValueError("interval radius a must be positive")
    if grid < 2:
        raise ValueError("interval grid needs at least 2 points")
    if spacing == "chebyshev":
        k = np.arange(grid)
        x = -a * np.cos(np.pi * k / (grid - 1))
    elif spacing == "uniform":
        x = np.linspace(-a, a, grid)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    pts = _freeze(x.astype(complex).reshape(-1, 1))
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> bool:
        return abs(p[0].imag) <= tol and abs(p[0].real) <= a + tol

    return DesignSpace("interval", 1, a, pts, member, {"grid": grid, "spacing": spacing})


def cube(dimension: int = 2, a: float = 1.0, per_axis: int = 33) -> DesignSpace:
    """The cube [-a, a]^d with a tensor Chebyshev-mapped grid."""
    if dimension < 1:
        raise ValueError("cube dimension must be >= 1")
    if a <= 0 or per_axis < 2:
        raise ValueError("cube needs a > 0 and per_axis >= 2")
    k = np.arange(per_axis)
    axis = -a * np.cos(np.pi * k / (per_axis - 1))
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(complex)
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> bool:
        return bool(np.all(np.abs(p.imag) <= tol) and np.all(np.abs(p.real) <= a + tol))

    return DesignSpace("cube", dimension, a, _freeze(pts), member, {"per_axis": per_axis})


def ball(dimension: int = 2, a: float = 1.0, radial: int = 12, angular: int = 48) -> DesignSpace:
    """The Euclidean ball of radius a with radially graded shells.

    Shell radii follow a sine map so points cluster near the boundary,
    where optimal designs place most of their mass.  d = 1 falls back to
    the interval grid; d in {2, 3} use polar and spherical shells.
    """
    if dimension == 1:
        sp = interval(a=a, grid=radial * max(2, angular // 8))
        return DesignSpace("ball", 1, a, sp.grid, sp.membership, {"radial": radial, "angular": angular})
    if dimension not in (2, 3):
        raise ValueError("ball grids are implemented for dimension <= 3")
    if a <= 0 or radial < 2:
        raise ValueError("ball needs a > 0 and radial >= 2")
    shells = a * np.sin(0.5 * np.pi * np.arange(1, radial + 1) / radial)
    pts_list = [np.zeros((1, dimension))]
    for r in shells:
        if dimension == 2:
            cnt = max(6, int(round(angular * r / a)))
            th = 2 * np.pi * np.arange(cnt) / cnt
            pts_list.append(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
        else:
            cnt = max(12, int(round(angular * (r / a) ** 2)))
            # Fibonacci sphere: near-uniform direction set of any size
            i = np.arange(cnt)
            phi = np.arccos(1 - 2 * (i + 0.5) / cnt)
            th = np.pi * (1 + math.sqrt(5.0)) * i
            pts_list.append(
                np.stack(
                    [
                        r * np.sin(phi) * np.cos(th),
                        r * np.sin(phi) * np.sin(th),
                        r * np.cos(phi),
                    ],
                    axis=1,
                )
            )
    pts = np.concatenate(pts_list, axis=0).astype(complex)
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> bool:
        return bool(np.all(np.abs(p.imag) <= tol) and np.linalg.norm(p.real) <= a + tol)

    return DesignSpace("ball", dimension, a, _freeze(pts), member, {"radial": radial, "angular": angular})


def simplex(dimension: int = 2, a: float = 1.0, refine: int = 24) -> DesignSpace:
    """The simplex {x_i >= 0, sum x_i <= a} with a barycentric lattice grid."""
    if dimension not in (1, 2, 3):
        raise ValueError("simplex grids are implemented for dimension <= 3")
    if a <= 0 or refine < 1:
        raise ValueError("simplex needs a > 0 and refine >= 1")

    def lattice(d: int, total: int):
        if d == 1:
            for k in range(total + 1):
                yield (k,)
            return
        for k in range(total + 1):
            for rest in lattice(d - 1, total - k):
                yield (k,) + rest

    pts = np.array([p for p in lattice(dimension, refine)], dtype=float) * (a / refine)
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> bool:
        x = p.real
        return bool(
            np.all(np.abs(p.imag) <= tol)
            and np.all(x >= -tol)
            and float(np.sum(x)) <= a + tol
        )

    return DesignSpace("simplex", dimension, a, _freeze(pts.astype(complex)), member, {"refine": refine})


def disk(
    a: float = 1.0,
    radial: int = 24,
    angular: int = 80,
    include_center: bool = True,
    spacing: str = "chebyshev",
) -> DesignSpace:
    """The complex disk |z| <= a with concentric rings of equal angular count.

    Equal angular counts keep the grid invariant under rotation by
    2*pi/angular, so radially symmetric problems stay symmetric on the
    grid; the rotation orbits (rings) are recorded in params["orbits"]
    so solvers can project iterates back onto the symmetric subspace.
    """
    if a <= 0 or radial < 2 or angular < 4:
        raise ValueError("disk needs a > 0, radial >= 2, angular >= 4")
    steps = np.arange(1, radial + 1)
    if spacing == "chebyshev":
        radii = a * np.sin(0.5 * np.pi * steps / radial)
    elif spacing == "uniform":
        radii = a * steps / radial
    else:
        raise ValueError(f"unknown disk spacing {spacing!r}")
    th = 2 * np.pi * np.arange(angular) / angular
    ring = np.exp(1j * th)
    pts = (radii[:, None] * ring[None, :]).ravel()
    orbit = np.repeat(steps, angular)
    if include_center:
        pts = np.concatenate([[0.0 + 0.0j], pts])
        orbit = np.concatenate([[0], orbit])
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> bool:
        return bool(abs(p[0]) <= a + tol)

    orbit = orbit.astype(np.intp)
    orbit.setflags(write=False)
    return DesignSpace(
        "disk", 1, a, _freeze(pts.reshape(-1, 1)), member,
        {
            "radial": radial,
            "angular": angular,
            "include_center": include_center,
            "spacing": spacing,
            "orbits": orbit,
        },
    )


def custom_grid(points, membership: Callable[[np.ndarray], bool] | None = None, a: float = 1.0) -> DesignSpace:
    """Wrap an explicit point set as a design space; repeated points are refused."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    _require_distinct(pts, 0.0, "grid points")
    member = membership if membership is not None else (lambda p: True)
    return DesignSpace("custom", pts.shape[1], a, _freeze(pts.copy()), member, {})


def basis_for_space(space: DesignSpace, s: int, kind: str = "stabilized") -> PolyBasis:
    """Construct the evaluation basis attached to a design space.

    The stabilized kind derives per-coordinate centers and scales from the
    grid's bounding box; the monomial kind ignores the space.
    """
    if kind == "monomial":
        return monomial_basis(space.dimension, s)
    if kind != "stabilized":
        raise ValueError(f"unknown basis kind {kind!r}")
    g = space.grid
    d = space.dimension
    centers = np.empty(d, dtype=complex)
    scales = np.empty(d)
    complex_coords = np.empty(d, dtype=bool)
    for i in range(d):
        col = g[:, i]
        if np.any(np.abs(col.imag) > 0):
            complex_coords[i] = True
            c = complex(col.mean())
            r = float(np.max(np.abs(col - c)))
            centers[i], scales[i] = c, (r if r > 0 else 1.0)
        else:
            complex_coords[i] = False
            lo, hi = float(col.real.min()), float(col.real.max())
            centers[i] = 0.5 * (lo + hi)
            h = 0.5 * (hi - lo)
            scales[i] = h if h > 0 else 1.0
    return stabilized_basis(d, s, centers, scales, complex_coords)


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """A nonnegative weight w on the design space.

    Kinds: ``unit`` (w = 1), ``gaussian`` (w = exp(-|z|^2)), ``table``
    (values attached to explicit points, nearest-match lookup within 1e-9),
    and ``callable`` (arbitrary user function, evaluated pointwise).
    """

    kind: str
    func: Callable | None = None
    table_points: np.ndarray | None = None
    table_values: np.ndarray | None = None

    def values(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if self.kind == "unit":
            return np.ones(pts.shape[0])
        if self.kind == "gaussian":
            return np.exp(-np.sum(np.abs(pts) ** 2, axis=1))
        if self.kind == "table":
            return self._lookup(pts)
        vals = np.array([float(np.real(self.func(p[0] if pts.shape[1] == 1 else p))) for p in pts])
        if not np.all(np.isfinite(vals)):
            raise ValueError("weight function returned a non-finite value")
        if np.any(vals < 0):
            raise ValueError("weight function returned a negative value")
        return vals

    def _lookup(self, pts: np.ndarray) -> np.ndarray:
        ref = self.table_points
        _, j = cKDTree(_real_coordinates(ref)).query(_real_coordinates(pts))
        if np.any(_point_distance(ref[j], pts) > 1e-9):
            raise ValueError("tabulated weight queried off its grid")
        return self.table_values[j]

    def __call__(self, z) -> float:
        arr = np.asarray(z, dtype=complex)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        return float(self.values(arr)[0])

    def phi(self, z) -> float:
        """The external field -log w; +inf where w vanishes."""
        w = self(z)
        return math.inf if w == 0 else -math.log(w)


def unit_weight() -> WeightFunction:
    return WeightFunction(kind="unit")


def gaussian_weight() -> WeightFunction:
    return WeightFunction(kind="gaussian")


def table_weight(points, values) -> WeightFunction:
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    vals = np.asarray(values, dtype=float)
    if len(vals) != pts.shape[0]:
        raise ValueError("tabulated weight needs one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("tabulated weights must be finite")
    if np.any(vals < 0):
        raise ValueError("weights must be nonnegative")
    return WeightFunction(kind="table", table_points=pts, table_values=vals)


def callable_weight(func: Callable) -> WeightFunction:
    return WeightFunction(kind="callable", func=func)


# ---------------------------------------------------------------------------
# discrete designs


@dataclass(frozen=True)
class DiscreteDesign:
    """A finitely supported probability measure: atoms and weights."""

    points: np.ndarray  # (m, d) complex
    weights: np.ndarray  # (m,) float, nonnegative, sums to 1

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size


def make_design(points, weights) -> DiscreteDesign:
    """Validate and build a design from atoms and weights.

    Weights must be nonnegative and sum to 1 within 1e-9 (they are then
    renormalized exactly); atoms must be pairwise distinct beyond 1e-12.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if pts.shape[0] != w.shape[0]:
        raise ValueError(f"{pts.shape[0]} points but {w.shape[0]} weights")
    if pts.shape[0] == 0:
        raise ValueError("a design needs at least one atom")
    if np.any(w < 0):
        raise ValueError("design weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) >= _SUM_TOL:
        raise ValueError(f"design weights sum to {total!r}, not 1")
    _require_distinct(pts, _ATOM_TOL, "atoms")
    return DiscreteDesign(points=_freeze(pts.copy()), weights=_freeze(w / total))


def uniform_design(points) -> DiscreteDesign:
    """Equal weights on the given atoms."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    m = pts.shape[0]
    return make_design(pts, np.full(m, 1.0 / m))


class PruneResult(NamedTuple):
    design: DiscreteDesign
    dropped_mass: float


def prune_and_merge(design: DiscreteDesign, weight_tol: float = 0.0, merge_radius: float = 0.0) -> PruneResult:
    """Drop light atoms, merge near-coincident clusters, renormalize.

    Atoms with weight < weight_tol are removed (their total mass is the
    reported ``dropped_mass``); surviving atoms closer than ``merge_radius``
    are merged into weight barycenters, cluster by connected component.
    """
    keep = design.weights >= weight_tol if weight_tol > 0 else design.weights > 0
    dropped = float(design.weights[~keep].sum())
    pts = design.points[keep]
    w = design.weights[keep]
    if pts.shape[0] == 0:
        raise ValueError("pruning removed every atom")
    if merge_radius > 0 and pts.shape[0] > 1:
        m = pts.shape[0]
        dist = np.linalg.norm((pts[:, None, :] - pts[None, :, :]).view(float).reshape(m, m, -1), axis=2)
        parent = list(range(m))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(m):
            for j in range(i + 1, m):
                if dist[i, j] <= merge_radius:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(m):
            groups.setdefault(find(i), []).append(i)
        new_pts, new_w = [], []
        for members in groups.values():
            wm = w[members]
            new_w.append(float(wm.sum()))
            new_pts.append(np.average(pts[members], axis=0, weights=wm))
        order = np.argsort([float(np.real(p[0])) for p in new_pts], kind="stable")
        pts = np.array(new_pts)[order]
        w = np.array(new_w)[order]
    return PruneResult(make_design(pts, w / w.sum()), dropped)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    positive_count: int
    required: int
    rank: int | None
    reason: str | None = None


def check_admissible(weight: WeightFunction, space: DesignSpace, s: int) -> AdmissibilityReport:
    """Whether w admits a nonsingular degree-s design on this grid.

    Requires at least n = C(s+d, d) grid points with positive weight and a
    full-rank Vandermonde matrix on those points.
    """
    n = space_dimension(space.dimension, s)
    wvals = weight.values(space.grid)
    pos = wvals > 0
    count = int(pos.sum())
    if count < n:
        return AdmissibilityReport(False, count, n, None, f"only {count} positive-weight grid points, need {n}")
    basis = basis_for_space(space, s)
    B = eval_basis_many(basis, space.grid[pos])
    rank = int(np.linalg.matrix_rank(B))
    if rank < n:
        return AdmissibilityReport(False, count, n, rank, f"Vandermonde rank {rank} < {n} on positive-weight points")
    return AdmissibilityReport(True, count, n, rank)


# ---------------------------------------------------------------------------
# serialization


def design_to_json(design: DiscreteDesign, degree: int = 0) -> str:
    """Serialize a design; coordinates are stored as [re, im] pairs."""
    payload = {
        "dimension": design.dimension,
        "degree": degree,
        "points": [[[float(z.real), float(z.imag)] for z in row] for row in design.points],
        "weights": [float(w) for w in design.weights],
    }
    return json.dumps(payload)


def design_from_json(text: str) -> tuple[DiscreteDesign, int]:
    """Inverse of :func:`design_to_json`; returns (design, degree)."""
    payload = json.loads(text)
    d = int(payload["dimension"])
    pts = np.array(
        [[complex(re, im) for re, im in row] for row in payload["points"]],
        dtype=complex,
    ).reshape(-1, d)
    return make_design(pts, payload["weights"]), int(payload["degree"])


def weight_to_json(weight: WeightFunction) -> str:
    if weight.kind == "unit":
        return json.dumps({"kind": "unit"})
    if weight.kind == "gaussian":
        return json.dumps({"kind": "gaussian"})
    if weight.kind == "table":
        return json.dumps(
            {
                "kind": "table",
                "points": [[[float(z.real), float(z.imag)] for z in row] for row in weight.table_points],
                "values": [float(v) for v in weight.table_values],
            }
        )
    raise ValueError("callable weights cannot be serialized")


def weight_from_json(text: str) -> WeightFunction:
    payload = json.loads(text)
    kind = payload["kind"]
    if kind == "unit":
        return unit_weight()
    if kind == "gaussian":
        return gaussian_weight()
    if kind == "table":
        pts = np.array(
            [[complex(re, im) for re, im in row] for row in payload["points"]],
            dtype=complex,
        )
        return table_weight(pts, payload["values"])
    raise ValueError(f"unknown weight kind {kind!r}")
