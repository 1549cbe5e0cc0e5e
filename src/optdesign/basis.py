"""Multivariate polynomial bases and their evaluation.

The public contract is the monomial basis in graded lexicographic order
(constant first, then degree-1 terms with the leading coordinate first,
and so on).  Internally every grid computation uses the weighted Arnoldi
basis of its grid, orthonormal there; every quantity that depends on the
basis normalization can be mapped back to the monomial scale through the
triangular change-of-basis determinant exposed here.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Monomial degrees beyond these (8 in three or more dimensions) are legal
# but increasingly fragile in double precision; construction warns instead.
_DEGREE_CAPS = {1: 24, 2: 12}


class ConditioningWarning(RuntimeWarning):
    """Requested monomial degree exceeds the double-precision comfort zone."""


def space_dimension(d: int, s: int) -> int:
    """Dimension C(s+d, d) of polynomials of total degree <= s in d variables."""
    if d < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {d}")
    if s < 0:
        raise ValueError(f"degree must be >= 0, got {s}")
    n = math.comb(s + d, d)
    if n > 2**62:
        raise OverflowError(f"basis size C({s + d},{d}) exceeds the integer range")
    return n


def degree_sum(d: int, s: int) -> int:
    """Sum of the total degrees over the monomial basis, d*s*C(s+d,d)/(d+1) = d*C(s+d,d+1), in integers.

    d and s are checked as ``space_dimension`` checks them.
    """
    space_dimension(d, s)
    return d * math.comb(s + d, d + 1)


def _compositions(total: int, d: int) -> list[tuple[int, ...]]:
    # exponent tuples of the given total degree, leading coordinate first
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, d - 1):
            out.append((first,) + rest)
    return out


def multi_indices(d: int, s: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree <= s in graded lexicographic order."""
    out: list[tuple[int, ...]] = []
    for total in range(s + 1):
        out.extend(_compositions(total, d))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PolyBasis:
    """An ordered basis of the degree-<=s polynomials in d variables.

    Attributes
    ----------
    dimension, degree : int
        Ambient dimension d and maximal total degree s.
    indices : tuple of exponent tuples
        Multi-indices in graded lexicographic order, shared by every basis.
    recurrence : (n, n) array
        The upper-triangular H of p_0 = 1 / (c^s H[0, 0]) and
        p_j = (x_i p_parent - sum_{k<j} H[k, j] p_k) / H[j, j]: the
        identity for the monomials, and for the Arnoldi basis
        (``arnoldi_basis``) complex exactly when its grid is.
    log_lead : float
        log |det T| of the lower-triangular matrix T expressing this basis
        in monomials.  Basis-dependent determinants are mapped to the
        monomial normalization by subtracting ``log_lead`` (once per
        Vandermonde factor).
    weight_scale : float
        c above: the largest grid weight of an Arnoldi basis, 1 for the
        monomials.  ``weighted_rows`` folds c^-s into (w / c)^s.
    """

    dimension: int
    degree: int
    indices: tuple[tuple[int, ...], ...]
    recurrence: np.ndarray
    log_lead: float = 0.0
    weight_scale: float = 1.0

    @property
    def n(self) -> int:
        return len(self.indices)


def monomial_basis(d: int, s: int) -> PolyBasis:
    """The monomial basis of degree <= s in graded lexicographic order; warns past the comfort zone."""
    n = space_dimension(d, s)  # refuses d < 1, s < 0 and sizes past the integer range
    if s > (cap := _DEGREE_CAPS.get(d, 8)):
        msg = f"degree {s} in dimension {d} exceeds the double-precision comfort zone (cap {cap}); expect lost accuracy"
        warnings.warn(msg, ConditioningWarning, stacklevel=2)
    return PolyBasis(d, s, multi_indices(d, s), np.eye(n))


@functools.cache
def _recurrence(d: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each column alpha's first coordinate i with alpha_i > 0 and the column of alpha - e_i (0 and 0 for alpha = 0)."""
    idx = multi_indices(d, s)
    column = {alpha: j for j, alpha in enumerate(idx)}
    coord = tuple(next((i for i, k in enumerate(alpha) if k), 0) for alpha in idx)
    return coord, tuple(column.get(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :], 0) for alpha, i in zip(idx, coord))


# Most multiply-adds _matmul hands to one BLAS call.  numpy 2.4.6's bundled
# OpenBLAS runs dgemm on one thread up to this size: on 2 cores a 2000 x 100
# by 100 x 5 product (1.0e6) left the worker thread idle, a 2097 x 100 by
# 100 x 5 one (1.05e6) woke it, and it then spun through the calls after it.
# A one-column B goes to dgemv, which threads from a smaller size: 60000 x 5
# by 5 x 1 (3e5) stayed on one thread, 100000 x 5 by 5 x 1 (5e5) woke it.
_GEMM_MAX_MACS = 10**6
_GEMV_MAX_MACS = 2 * 10**5


def _floats(A: np.ndarray) -> np.ndarray:
    """The float64 view of complex A, columns interleaving real and imaginary parts; copied only if rows are strided."""
    A = np.asarray(A, dtype=complex)
    return (A if A.shape[-1] == 1 or A.strides[-1] == A.itemsize else A.copy()).view(np.float64)


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B in row blocks of A small enough that OpenBLAS stays on one thread.

    A complex product runs as a real one of twice the width, since OpenBLAS
    threads complex GEMMs from a much smaller size: the float64 view of A
    times the real 2k x 2n matrix whose rows 2i and 2i + 1 are the views of
    B[i] and i B[i] is the float64 view of A @ B.
    """
    if A.dtype.kind == "c" or B.dtype.kind == "c":
        W = np.concatenate([B, 1j * B], axis=1).reshape(2 * B.shape[0], B.shape[1]).view(np.float64)
        return _matmul(_floats(A), W).view(complex)
    cap = _GEMV_MAX_MACS if B.shape[1] == 1 else _GEMM_MAX_MACS
    if A.shape[0] * A.shape[1] * B.shape[1] <= cap:
        return np.matmul(A, B)
    rows = max(1, cap // (A.shape[1] * B.shape[1]))
    out = np.empty((A.shape[0], B.shape[1]), dtype=np.result_type(A, B))
    for i in range(0, A.shape[0], rows):
        np.matmul(A[i : i + rows], B, out=out[i : i + rows])
    return out


def _inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^H B by ``_matmul``, for complex operands as one real product of their float64 views.

    Viewed as complex, its rows 2i and 2i + 1 sum re(a_i) b and im(a_i) b
    over the rows, so A^H B is row 2i minus i times row 2i + 1.
    """
    if A.dtype.kind != "c" and B.dtype.kind != "c":
        return _matmul(A.T, B)
    G = _matmul(_floats(A).T, _floats(B)).view(complex)
    return G[0::2] - 1j * G[1::2]


def _norm(v: np.ndarray) -> float:
    """||v||; where the sum of squares would overflow or underflow, of the entries scaled exactly by a power of two."""
    V = v.view(np.float64) if np.iscomplexobj(v) else v
    if 1e-250 < (ss := float(np.einsum("i,i", V, V))) < math.inf:
        return math.sqrt(ss)
    V = np.ldexp(V, -(e := math.frexp(float(np.max(np.abs(V))))[1]))
    return math.ldexp(math.sqrt(np.einsum("i,i", V, V)), e)


def arnoldi_basis(points, wvals, s: int) -> tuple[PolyBasis, np.ndarray, int]:
    """The weighted Arnoldi basis of a grid: (basis, its weighted rows on the grid, their rank).

    Vandermonde with Arnoldi (Brubeck, Nakatsukasa & Trefethen, SIAM Rev.
    63, 2021): column 0 is (w / max w)^s at the points, and column alpha
    is x_i times column alpha - e_i, i the first coordinate with
    alpha_i > 0.  Each is orthogonalized twice against the columns before
    it (Hermitian products on complex grids) and normalized, so the rows
    have orthonormal columns on the grid; the projections and norms fill
    the recurrence H.  The change of basis to monomials is triangular, and
    ``log_lead`` sums the logs of the leading coefficients.

    A column whose norm falls to max(m, n) eps of its norm before
    orthogonalization lies in the span of the earlier ones on the
    positive-weight points: it stays zero on the grid, keeps scale 1 off
    it, and is not counted in the rank.
    """
    X = np.asarray(points, dtype=complex)
    m, d = X.shape
    X = X.real.copy() if not np.any(X.imag) else X
    n = space_dimension(d, s)
    coord, parent = _recurrence(d, s)
    w = np.asarray(wvals, dtype=float)
    scale = float(np.max(w)) or 1.0
    Q = np.zeros((m, n), dtype=X.dtype)
    H = np.zeros((n, n), dtype=X.dtype)
    tol = max(m, n) * np.finfo(np.float64).eps
    lead = np.full(n, -s * math.log(scale))  # log |leading coefficient| of each column's polynomial
    rank = n
    for j in range(n):
        v = X[:, coord[j]] * Q[:, parent[j]] if j else ((w / scale) ** s).astype(X.dtype)
        norm0 = _norm(v)
        for _ in range(2 if j else 0):
            c = _inner(Q[:, :j], v[:, None])[:, 0]
            v -= _matmul(Q[:, :j], c[:, None])[:, 0]
            H[:j, j] += c
        h = _norm(v)
        if h > tol * norm0:
            np.divide(v, h, out=Q[:, j])
        else:
            h, rank = 1.0, rank - 1
        H[j, j] = h
        lead[j] = lead[parent[j]] - math.log(h)
    return PolyBasis(d, s, multi_indices(d, s), H, float(lead.sum()), scale), Q, rank


def as_points(points, d: int) -> np.ndarray:
    """Coerce scalars / sequences / arrays to an (m, d) complex array."""
    arr = np.asarray(points, dtype=complex)
    if arr.ndim == 0:
        if d != 1:
            raise ValueError(f"scalar point given for dimension {d}")
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        if d == 1:
            return arr.reshape(-1, 1)
        if arr.shape[0] != d:
            raise ValueError(f"point of length {arr.shape[0]} in dimension {d}")
        return arr.reshape(1, d)
    if arr.ndim == 2:
        if arr.shape[1] != d:
            raise ValueError(f"points have {arr.shape[1]} coordinates, expected {d}")
        return arr
    raise ValueError(f"cannot interpret array of shape {arr.shape} as points")


def _replay(basis: PolyBasis, points, start) -> np.ndarray:
    """The recurrence replayed at many points from p_0 = start / H[0, 0]; complex where H or a point is."""
    pts = as_points(points, basis.dimension)
    H = basis.recurrence
    X = pts if np.iscomplexobj(H) or np.any(pts.imag) else pts.real
    coord, parent = _recurrence(basis.dimension, basis.degree)
    Q = np.empty((pts.shape[0], basis.n), dtype=X.dtype)
    Q[:, 0] = start / H[0, 0]
    for j in range(1, basis.n):
        v = X[:, coord[j]] * Q[:, parent[j]]
        Q[:, j] = (v - _matmul(Q[:, :j], H[:j, j : j + 1])[:, 0]) / H[j, j]
    return Q


def eval_basis_many(basis: PolyBasis, points) -> np.ndarray:
    """Evaluate every basis element at many points: an (m, n) array, complex where the recurrence or a point is."""
    return _replay(basis, points, basis.weight_scale**-basis.degree)


def eval_basis(basis: PolyBasis, z) -> np.ndarray:
    """Evaluate the basis at a single point; returns a length-n vector."""
    return eval_basis_many(basis, z)[0]
