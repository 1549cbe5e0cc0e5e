"""Design spaces, grids, weight functions, and discrete designs.

A design space is a compact set together with a finite evaluation grid.
Grids cluster points where optimal designs concentrate: Chebyshev maps on
intervals and cubes, radially graded shells on balls and the complex disk,
a barycentric lattice on simplices.  Designs are finitely supported
probability measures stored as (points, weights) arrays.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import PolyBasis, _matmul, _replay, arnoldi_basis, as_points

_ATOM_TOL = 1e-12  # atoms closer than this times min(1, the largest coordinate modulus) coincide
_SUM_TOL = 1e-9  # admissible drift of a weight vector's total mass


# ---------------------------------------------------------------------------
# point sets


def _point_array(points) -> np.ndarray:
    """Points as a complex array; a 1-d input holds m points of one coordinate."""
    pts = np.asarray(points, dtype=complex)
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


def _real_coordinates(pts: np.ndarray) -> np.ndarray:
    """(m, d) complex points as (m, 2d) real ones: real and imaginary parts."""
    return np.ascontiguousarray(pts).view(np.float64)


def _point_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distance max_k |a_k - b_k| between (m, d) complex point sets."""
    return np.max(np.abs(a - b), axis=1)


@functools.cache
def _direction(dim: int) -> tuple[np.ndarray, float, float]:
    """A fixed generic direction u > 0 in R^dim (golden-ratio fractions), with |u| and sum(u)."""
    u = _freeze(0.5 + np.modf(np.arange(1, dim + 1) * (math.sqrt(5.0) - 1.0) / 2.0)[0])
    return u, math.sqrt(u @ u), float(u.sum())


def _near_pairs(X: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of rows of the real point set X that may lie within ``radius``.

    Every pair at Euclidean distance at most ``radius`` is among them;
    callers test the candidates with their own distance.  The rows are
    sorted by their projection y = X u onto a fixed generic direction:
    |y_i - y_j| <= |x_i - x_j| |u|, so partners sit at most radius |u|
    apart in y, plus a bound on the rounding of the projections.  The scan
    takes the pairs k = 1, 2, ... places apart in that order until no pair
    at distance k is that close.
    """
    if not np.isfinite(X).all():
        raise ValueError("point coordinates must be finite")
    u, norm, total = _direction(X.shape[1])
    y = X @ u
    # |fl(y_i) - y_i| <= dim eps sum_k |x_ik| u_k <= dim eps max|X| sum(u); 8 (dim + 2) covers
    # both projections, the subtraction and the window's own rounding
    rounding = 8.0 * (X.shape[1] + 2) * np.finfo(np.float64).eps * float(np.abs(X).max(initial=0.0)) * total
    half = radius * norm * (1.0 + 1e-12) + rounding
    order = np.argsort(y, kind="stable")
    y = y[order]
    i, j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for k in range(1, y.size):
        close = np.flatnonzero(y[k:] - y[:-k] <= half)
        if not close.size:
            break
        i.append(order[close])
        j.append(order[close + k])
    i, j = np.concatenate(i), np.concatenate(j)
    return np.minimum(i, j), np.maximum(i, j)


def _require_distinct(pts: np.ndarray, tol: float, what: str) -> None:
    """Raise ValueError naming the closest pair of points within ``tol``.

    Distance is max over coordinates of |z_k - z'_k|; ties go to the
    lowest (i, j).  Two points within ``tol`` lie within sqrt(d) tol of
    each other in the real coordinates, where ``_near_pairs`` searches.
    """
    i, j = _near_pairs(_real_coordinates(pts), math.sqrt(pts.shape[1]) * tol)
    dist = _point_distance(pts[i], pts[j])
    near = np.flatnonzero(dist <= tol)
    if not near.size:
        return
    k = near[np.lexsort((j[near], i[near], dist[near]))[0]]
    raise ValueError(f"{what} {i[k]} and {j[k]} coincide" + (f" within {tol}" if tol else ""))


# ---------------------------------------------------------------------------
# design spaces


@dataclass(frozen=True)
class DesignSpace:
    """A compact design space with a finite evaluation grid.

    ``grid`` has shape (m, d) and complex dtype; real spaces carry zero
    imaginary parts.  ``membership`` maps an (m, d) point array to m
    booleans: whether each point belongs to the underlying continuum set
    (used for validation, not for optimization).  ``orbits``, when not
    None, gives each grid point the id of its orbit under symmetries of
    the grid that leave the degree-s polynomials and the D-criterion
    invariant; the solver keeps one mass per orbit when the weight is
    constant on them.
    """

    kind: str
    dimension: int
    a: float
    grid: np.ndarray
    membership: Callable[[np.ndarray], np.ndarray]
    orbits: np.ndarray | None = None

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def contains(self, z) -> bool:
        return bool(self.membership(as_points(z, self.dimension))[0])

    @property
    def is_complex(self) -> bool:
        return bool(np.any(np.abs(self.grid.imag) > 0))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _orbit_ids(keys) -> np.ndarray:
    """Orbit ids 0, 1, ... of rows of integer keys that are equal up to a permutation of their entries.

    Each row is sorted and read as one mixed-radix integer, so the ids
    follow the lexicographic order of the sorted keys.
    """
    keys = np.sort(np.asarray(keys, dtype=np.int64).reshape(len(keys), -1), axis=1)
    base = int(keys.max()) + 1
    code = keys @ np.array([base**j for j in reversed(range(keys.shape[1]))], dtype=np.int64)
    return _freeze(np.unique(code, return_inverse=True)[1])


def interval(a: float = 1.0, grid: int = 401, spacing: str = "chebyshev") -> DesignSpace:
    """The interval [-a, a] with a Chebyshev-mapped (or uniform) grid.

    Nodes k and grid - 1 - k are mirror images; these orbits are recorded
    in ``orbits``, as ``cube(1)`` records them.
    """
    if a <= 0:
        raise ValueError("interval radius a must be positive")
    if grid < 2:
        raise ValueError("interval grid needs at least 2 points")
    k = np.arange(grid)
    if spacing == "chebyshev":
        x = -a * np.cos(np.pi * k / (grid - 1))
    elif spacing == "uniform":
        x = np.linspace(-a, a, grid)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    pts = _freeze(x.astype(complex).reshape(-1, 1))
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> np.ndarray:
        return (np.abs(p[:, 0].imag) <= tol) & (np.abs(p[:, 0].real) <= a + tol)

    return DesignSpace("interval", 1, a, pts, member, _orbit_ids(np.minimum(k, grid - 1 - k)))


def cube(dimension: int = 2, a: float = 1.0, per_axis: int = 33) -> DesignSpace:
    """The cube [-a, a]^d with a tensor Chebyshev-mapped grid.

    The grid is invariant under sign flips and permutations of the axes;
    those orbits (1, 4 or 8 points each for d = 2) are recorded in
    ``orbits``, as the disk records its rings.
    """
    if dimension < 1:
        raise ValueError("cube dimension must be >= 1")
    if a <= 0 or per_axis < 2:
        raise ValueError("cube needs a > 0 and per_axis >= 2")
    k = np.arange(per_axis)
    axis = -a * np.cos(np.pi * k / (per_axis - 1))
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(complex)
    # node k and node per_axis - 1 - k are mirror images; a point's orbit is
    # the sorted tuple of its folded node indices
    folded = np.meshgrid(*([np.minimum(k, per_axis - 1 - k)] * dimension), indexing="ij")
    orbits = _orbit_ids(np.stack([g.ravel() for g in folded], axis=1))
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> np.ndarray:
        return np.all((np.abs(p.imag) <= tol) & (np.abs(p.real) <= a + tol), axis=1)

    return DesignSpace("cube", dimension, a, _freeze(pts), member, orbits)


def ball(dimension: int = 2, a: float = 1.0, radial: int = 12, angular: int = 48) -> DesignSpace:
    """The Euclidean ball of radius a with radially graded shells.

    Shell radii follow a sine map so points cluster near the boundary,
    where optimal designs place most of their mass.  d = 1 falls back to
    the interval grid and its mirror orbits; d in {2, 3} use polar and
    spherical shells.
    """
    if dimension == 1:
        sp = interval(a=a, grid=radial * max(2, angular // 8))
        return DesignSpace("ball", 1, a, sp.grid, sp.membership, sp.orbits)
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

    def member(p: np.ndarray) -> np.ndarray:
        return np.all(np.abs(p.imag) <= tol, axis=1) & (np.sqrt(np.sum(p.real**2, axis=1)) <= a + tol)

    return DesignSpace("ball", dimension, a, _freeze(pts), member)


def simplex(dimension: int = 2, a: float = 1.0, refine: int = 24) -> DesignSpace:
    """The simplex {x_i >= 0, sum x_i <= a} with a barycentric lattice grid.

    A lattice point has barycentric integers (k_1, ..., k_d, refine - sum k).
    The (d+1)! affine maps that permute the vertices permute these integers
    and leave the degree-s polynomials and the D-criterion invariant; their
    orbits are recorded in ``orbits``.
    """
    if dimension not in (1, 2, 3):
        raise ValueError("simplex grids are implemented for dimension <= 3")
    if a <= 0 or refine < 1:
        raise ValueError("simplex needs a > 0 and refine >= 1")
    k = np.indices((refine + 1,) * dimension).reshape(dimension, -1).T
    k = k[k.sum(axis=1) <= refine]  # the lattice in lexicographic order
    pts = k * (a / refine)
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> np.ndarray:
        x = p.real
        return np.all((np.abs(p.imag) <= tol) & (x >= -tol), axis=1) & (np.sum(x, axis=1) <= a + tol)

    orbits = _orbit_ids(np.column_stack([k, refine - k.sum(axis=1)]))
    return DesignSpace("simplex", dimension, a, _freeze(pts.astype(complex)), member, orbits)


def disk(a: float = 1.0, radial: int = 24, angular: int = 80, spacing: str = "chebyshev") -> DesignSpace:
    """The complex disk |z| <= a with concentric rings of equal angular count.

    Equal angular counts keep the grid invariant under rotation by
    2*pi/angular, so radially symmetric problems stay symmetric on the
    grid; the rotation orbits (rings, and the centre on its own) are
    recorded in ``orbits``, so solvers can keep one mass per ring.
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
    pts = np.concatenate([[0.0 + 0.0j], (radii[:, None] * ring[None, :]).ravel()])
    rings = np.concatenate([[0], np.repeat(steps, angular)])  # each point's ring index, 0 for the centre
    tol = 1e-12 * max(1.0, a)

    def member(p: np.ndarray) -> np.ndarray:
        return np.abs(p[:, 0]) <= a + tol

    return DesignSpace("disk", 1, a, _freeze(pts.reshape(-1, 1)), member, _orbit_ids(rings))


def custom_grid(points, membership: Callable[[np.ndarray], np.ndarray] | None = None) -> DesignSpace:
    """Wrap an explicit point set as a design space; points closer than ``make_design`` allows atoms are refused.

    ``membership`` maps an (m, d) point array to m booleans; by default
    every point belongs.  ``a`` is the largest coordinate modulus of the
    points, as on the interval, cube, simplex and disk grids.
    """
    pts = _point_array(points)
    if pts.size == 0:
        raise ValueError("a custom grid needs at least one point with at least one coordinate")
    _require_distinct(pts, _ATOM_TOL * min(1.0, float(np.abs(pts).max())), "grid points")
    member = membership if membership is not None else (lambda p: np.ones(len(p), dtype=bool))
    return DesignSpace("custom", pts.shape[1], float(np.max(np.abs(pts))), _freeze(pts.copy()), member)


def basis_for_space(space: DesignSpace, s: int) -> PolyBasis:
    """The Arnoldi basis of a design space's grid under unit weight, for evaluation off the grid."""
    return arnoldi_basis(space.grid, np.ones(space.grid_size), s)[0]


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """A nonnegative weight w on the design space.

    Kinds: ``unit`` (w = 1), ``gaussian`` (w = exp(-|z|^2)) and ``table``
    (values attached to explicit points, nearest-match lookup within 1e-9).
    """

    kind: str
    table_points: np.ndarray | None = None
    table_values: np.ndarray | None = None

    def values(self, points) -> np.ndarray:
        pts = _point_array(points)
        if self.kind == "unit":
            return np.ones(pts.shape[0])
        if self.kind == "gaussian":
            return np.exp(-np.sum(np.abs(pts) ** 2, axis=1))
        return self._lookup(pts)

    def _lookup(self, pts: np.ndarray) -> np.ndarray:
        """The value at the table point nearest each query point (ties: lowest index), within 1e-9."""
        ref = self.table_points
        if pts.shape[1] != ref.shape[1]:
            raise ValueError(f"tabulated weight has {ref.shape[1]} coordinates per point, queried with {pts.shape[1]}")
        X = _real_coordinates(np.concatenate([ref, pts]))
        i, j = _near_pairs(X, math.sqrt(pts.shape[1]) * 1e-9)
        cross = (i < len(ref)) & (j >= len(ref))  # i a table point, j a query point
        i, j = i[cross], j[cross]
        gap = X[i] - X[j]
        order = np.lexsort((i, np.einsum("ij,ij->i", gap, gap), j))
        i, j = i[order], j[order] - len(ref)
        first = np.flatnonzero(np.diff(j, prepend=-1))  # each query point's nearest candidate
        nearest = np.full(pts.shape[0], -1)
        nearest[j[first]] = i[first]
        if np.any(nearest < 0) or np.any(_point_distance(ref[nearest], pts) > 1e-9):
            raise ValueError("tabulated weight queried off its grid")
        return self.table_values[nearest]

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
    pts = _point_array(points)
    vals = np.asarray(values, dtype=float)
    if len(vals) != pts.shape[0]:
        raise ValueError("tabulated weight needs one value per point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("tabulated weights must be finite")
    if np.any(vals < 0):
        raise ValueError("weights must be nonnegative")
    return WeightFunction(kind="table", table_points=pts, table_values=vals)


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
    renormalized exactly); atoms must differ by more than 1e-12 min(1, s),
    s the largest coordinate modulus, so a tiny domain keeps its atoms.
    """
    pts = _point_array(points)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if pts.shape[0] != w.shape[0]:
        raise ValueError(f"{pts.shape[0]} points but {w.shape[0]} weights")
    if pts.shape[0] == 0:
        raise ValueError("a design needs at least one atom")
    if np.any(w < 0):
        raise ValueError("design weights must be nonnegative")
    total = float(w.sum())
    if not abs(total - 1.0) < _SUM_TOL:  # also refuses NaN weights
        raise ValueError(f"design weights sum to {total!r}, not 1")
    _require_distinct(pts, _ATOM_TOL * min(1.0, float(np.abs(pts).max())), "atoms")
    return DiscreteDesign(points=_freeze(pts.copy()), weights=_freeze(w / total))


def uniform_design(points) -> DiscreteDesign:
    """Equal weights on the given atoms."""
    pts = _point_array(points)
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
        xy = _real_coordinates(pts)
        i, j = _near_pairs(xy, merge_radius)
        near = np.linalg.norm(xy[i] - xy[j], axis=1) <= merge_radius
        i, j = i[near], j[near]
        # each atom takes the lowest index in its cluster: propagate the
        # smaller label across every close pair, then follow labels to their roots
        label = np.arange(pts.shape[0])
        while True:
            new = label.copy()
            low = np.minimum(label[i], label[j])
            np.minimum.at(new, i, low)
            np.minimum.at(new, j, low)
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        # clusters are numbered in order of their lowest member
        label = np.unique(label, return_inverse=True)[1]
        mass = np.bincount(label, weights=w)
        centre = np.stack([np.bincount(label, weights=w * c) for c in xy.T], axis=1) / mass[:, None]
        order = np.argsort(centre[:, 0], kind="stable")
        pts = centre.view(complex)[order]
        w = mass[order]
    return PruneResult(make_design(pts, w / w.sum()), dropped)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    positive_count: int
    required: int
    rank: int | None
    reason: str | None = None


def weighted_rows(basis: PolyBasis, points: np.ndarray, wvals: np.ndarray) -> np.ndarray:
    """The weighted Vandermonde rows w^s p(x), w = wvals and s the basis degree.

    Formed as (w / c)^s times the recurrence started from 1 / H[0, 0],
    with c the basis's ``weight_scale``, so they stay in range when w^s
    does not.  A design's moment matrix is the Gram matrix of its rows
    under its masses.  They are real when no basis value has an imaginary
    part.
    """
    B = _replay(basis, points, 1.0)
    return ((wvals / basis.weight_scale) ** basis.degree)[:, None] * (B if np.any(B.imag) else B.real)


def _squared_norms(Z: np.ndarray) -> np.ndarray:
    """||z||^2 of each row of Z."""
    F = Z.view(np.float64) if np.iscomplexobj(Z) else Z  # |z|^2 = re^2 + im^2, no hypot
    return np.einsum("ij,ij->i", F, F)


def _greedy_rows(A: np.ndarray) -> list[int]:
    """Up to n rows of the m x n matrix A chosen greedily for volume.

    Each step takes the row with the largest residual norm and projects
    its direction out of every row (modified Gram-Schmidt on the rows),
    the pivot order of a column-pivoted QR of A^T.  Complex rows are
    updated through real products of their float64 views.  Norms within a
    relative 1e-12 of the largest count as ties, which go to the lowest
    row, so rounding never chooses between symmetric points.  The pick
    stops early once no residual exceeds max(m, n) * eps times the largest
    row norm, so it returns rank(A) rows.
    """
    R = A.copy()
    m, n = R.shape
    norms = _squared_norms(R)
    tol = (max(m, n) * np.finfo(np.float64).eps) ** 2 * norms.max()
    sel = []
    for _ in range(n):
        j = int(np.argmax(norms >= (1.0 - 1e-12) * norms.max()))
        if not norms[j] > tol:
            break
        sel.append(j)
        q = R[j] / math.sqrt(norms[j])
        c = _matmul(R, q.conj()[:, None])
        R -= _matmul(c, q[None, :]) if np.iscomplexobj(R) else c * q
        norms = _squared_norms(R)
    return sel


def _exchange(A: np.ndarray, sel: list[int]) -> tuple[list[int], np.ndarray]:
    """Sweep row exchanges that raise |det A[sel]| until a sweep makes none.

    With B = inv(A[sel]), column k of A B holds the Lagrange polynomial of
    slot k at every grid point: putting row j in slot k multiplies
    |det A[sel]| by |(A B)[j, k]|.  Each sweep inverts once and starts at
    the first slot that gains; after a swap, B follows by the
    Sherman-Morrison update B -= B[:, k] (A[j] B - e_k) / (A B)[j, k], and
    the later slots read their columns afresh.  The fixed point is a local
    maximum of the volume that does not depend on the basis of the rows.
    Returns the picks and the Lagrange rows A inv(A[sel]) of the last sweep.
    """
    n = len(sel)
    while True:
        B = np.linalg.inv(A[sel])
        lagrange = _matmul(A, B)
        G = np.abs(lagrange)
        slots = np.flatnonzero(G > 1.0 + 1e-10) % n  # the slots some row would raise
        if not slots.size:
            return sel, lagrange
        first = int(slots.min())
        for k in range(first, n):
            gain = G[:, k] if k == first else np.abs(_matmul(A, B[:, k : k + 1])[:, 0])
            j = int(np.argmax(gain))
            if gain[j] > 1.0 + 1e-10:
                g = A[j] @ B
                B -= np.multiply.outer(B[:, k] / g[k], g - np.eye(1, n, k)[0])
                sel[k] = j


def _admissibility(A: np.ndarray, rank: int) -> AdmissibilityReport:
    """Whether at least n Arnoldi rows A are nonzero (w > 0, so column 0 is) and they have rank n."""
    n = A.shape[1]
    count = int(np.count_nonzero(A[:, 0]))
    if count < n:
        return AdmissibilityReport(False, count, n, None, f"only {count} positive-weight grid points, need {n}")
    reason = None if rank == n else f"weighted Vandermonde rank {rank} < {n} on positive-weight points"
    return AdmissibilityReport(rank == n, count, n, rank, reason)


def check_admissible(weight: WeightFunction, space: DesignSpace, s: int) -> AdmissibilityReport:
    """Whether w admits a degree-s design: n = C(s+d, d) grid points with w > 0, Arnoldi rows of rank n."""
    _, A, rank = arnoldi_basis(space.grid, weight.values(space.grid), s)
    return _admissibility(A, rank)


class AdmissibilityError(ValueError):
    """The weight does not admit a nonsingular design on this grid."""


def _fekete_rows(space: DesignSpace, weight: WeightFunction, s: int):
    """(basis, weight values, Lagrange rows, picks, log |det A[picks]|): the approximate Fekete points of the grid.

    The algorithm of Bos, De Marchi, Sommariva & Vianello (2010) on the
    grid's weighted Arnoldi rows A: refused with ``AdmissibilityError``
    unless they reach rank n, then the greedy volume pick of n rows,
    exchanged until no swap raises the volume.  The Lagrange rows
    A inv(A[picks]) hold the picked points' Lagrange basis at every grid
    point.
    """
    wvals = weight.values(space.grid)
    basis, A, rank = arnoldi_basis(space.grid, wvals, s)
    report = _admissibility(A, rank)
    if not report.passed:
        raise AdmissibilityError(f"degree-{s} design infeasible: {report.reason}")
    picks, lagrange = _exchange(A, _greedy_rows(A))
    return basis, wvals, lagrange, picks, float(np.linalg.slogdet(A[picks])[1])


# ---------------------------------------------------------------------------
# serialization


def design_to_json(design: DiscreteDesign, degree: int = 0) -> str:
    """Serialize a design; coordinates are stored as [re, im] pairs."""
    payload = {
        "dimension": design.dimension,
        "degree": degree,
        "points": _real_coordinates(design.points).reshape(design.size, -1, 2).tolist(),
        "weights": design.weights.tolist(),
    }
    return json.dumps(payload)


def _field(payload, key: str, what: str, expected: type | None = None):
    """payload[key], or a ValueError naming the missing key or its wrong type."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"{what} JSON has no {key!r} key")
    value = payload[key]
    if expected is not None and (not isinstance(value, expected) or isinstance(value, bool)):
        raise ValueError(f"{what} JSON {key!r} must be {expected.__name__}, not {type(value).__name__}")
    return value


def _numbers(values: list, what: str, key: str) -> np.ndarray:
    """A JSON list of numbers as floats, or a ValueError naming the key."""
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            return np.array(values, dtype=float)
    raise ValueError(f"{what} JSON {key!r} must be a list of numbers")


def _decode_points(rows: list, what: str, d: int) -> np.ndarray:
    """The "points" of a design or weight JSON as (m, d) complex: one list of d [re, im] pairs per point."""
    with contextlib.suppress(ValueError, TypeError, OverflowError):  # ragged rows, non-numbers, huge ints
        values = np.array(rows, dtype=float) if rows else np.empty((0, d, 2))
        if values.shape == (len(rows), d, 2) and np.isfinite(values).all():
            leaves = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
            if set(map(type, leaves)) <= {int, float}:
                return values.view(complex).reshape(-1, d)
    # word the first fault
    for i, row in enumerate(rows):
        for pair in row if isinstance(row, list) else [row]:
            if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair)):
                raise ValueError(f"{what} JSON point {i} holds {json.dumps(pair)}, not an [re, im] pair")
        if len(row) != d:
            raise ValueError(f"{what} JSON point {i} has {len(row)} coordinates, expected {d}")
    raise ValueError(f"{what} JSON points must be finite")


def design_from_json(text: str) -> tuple[DiscreteDesign, int]:
    """Inverse of :func:`design_to_json`; returns (design, degree)."""
    payload = json.loads(text)
    rows = _field(payload, "points", "design", list)
    d = _field(payload, "dimension", "design", int)
    if d < 1:
        raise ValueError(f"design JSON 'dimension' must be at least 1, got {d}")
    pts = _decode_points(rows, "design", d)
    weights = _numbers(_field(payload, "weights", "design", list), "design", "weights")
    return make_design(pts, weights), _field(payload, "degree", "design", int)


def weight_to_json(weight: WeightFunction) -> str:
    if weight.kind in ("unit", "gaussian"):
        return json.dumps({"kind": weight.kind})
    points = _real_coordinates(weight.table_points).reshape(len(weight.table_points), -1, 2).tolist()
    return json.dumps({"kind": "table", "points": points, "values": weight.table_values.tolist()})


def weight_from_json(text: str) -> WeightFunction:
    payload = json.loads(text)
    kind = _field(payload, "kind", "weight")
    if kind == "unit":
        return unit_weight()
    if kind == "gaussian":
        return gaussian_weight()
    if kind == "table":
        rows = _field(payload, "points", "weight", list)
        # a table has no "dimension": point 0 sets it
        pts = _decode_points(rows, "weight", max(len(rows[0]), 1) if rows and isinstance(rows[0], list) else 1)
        return table_weight(pts, _numbers(_field(payload, "values", "weight", list), "weight", "values"))
    raise ValueError(f"unknown weight kind {kind!r}")
