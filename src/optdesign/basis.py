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
    """Sum of the total degrees over the monomial basis, d*s*C(s+d,d)/(d+1).

    Computed in exact integer arithmetic; the quotient is always an integer.
    """
    num = d * s * space_dimension(d, s)
    if num % (d + 1) != 0:  # cannot happen; guards the integer contract
        raise ArithmeticError(f"degree sum d*s*n/(d+1) not integral for d={d}, s={s}")
    return num // (d + 1)


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
        Multi-indices in graded lexicographic order, shared by every kind.
    log_lead : float
        log |det T| of the lower-triangular matrix T expressing this basis
        in monomials.  Zero for the monomial kind.  Basis-dependent
        determinants are mapped to the monomial normalization by
        subtracting ``log_lead`` (once per Vandermonde factor).
    recurrence : array or None
        None for the monomials.  For the Arnoldi basis (``arnoldi_basis``),
        the upper-triangular H of p_0 = 1 / H[0, 0] and
        p_j = (x_i p_parent - sum_{k<j} H[k, j] p_k) / H[j, j], as a real
        matrix: H itself on a real grid, and on a complex one each entry
        h as the 2 x 2 block [[re h, im h], [-im h, re h]].
    """

    dimension: int
    degree: int
    indices: tuple[tuple[int, ...], ...]
    log_lead: float = 0.0
    recurrence: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.indices)


def monomial_basis(d: int, s: int) -> PolyBasis:
    """The monomial basis of degree <= s in graded lexicographic order; warns past the comfort zone."""
    space_dimension(d, s)  # refuses d < 1, s < 0 and sizes past the integer range
    if s > (cap := _DEGREE_CAPS.get(d, 8)):
        msg = f"degree {s} in dimension {d} exceeds the double-precision comfort zone (cap {cap}); expect lost accuracy"
        warnings.warn(msg, ConditioningWarning, stacklevel=2)
    return PolyBasis(dimension=d, degree=s, indices=multi_indices(d, s))


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


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B in row blocks of A small enough that OpenBLAS stays on one thread.

    A complex product runs as a real one of twice the width, since OpenBLAS
    threads complex GEMMs from a much smaller size: (a + ib)(c + id) =
    (ac - bd) + i(ad + bc), so the float64 view of A, whose columns
    interleave real and imaginary parts, times the real 2k x 2n image of B
    is the float64 view of A @ B.
    """
    if np.iscomplexobj(A) or np.iscomplexobj(B):
        A = np.ascontiguousarray(A, dtype=complex)
        k, n = B.shape
        W = np.array([[B.real, B.imag], [-B.imag, B.real]]).transpose(2, 0, 3, 1).reshape(2 * k, 2 * n)
        return _matmul(A.view(np.float64), W).view(complex)
    cap = _GEMV_MAX_MACS if B.shape[1] == 1 else _GEMM_MAX_MACS
    if A.shape[0] * A.shape[1] * B.shape[1] <= cap:
        return np.matmul(A, B)
    rows = max(1, cap // (A.shape[1] * B.shape[1]))
    out = np.empty((A.shape[0], B.shape[1]), dtype=np.result_type(A, B))
    for i in range(0, A.shape[0], rows):
        np.matmul(A[i : i + rows], B, out=out[i : i + rows])
    return out


def arnoldi_basis(points, wvals, s: int) -> tuple[PolyBasis, np.ndarray, int]:
    """The weighted Arnoldi basis of a grid: (basis, its weighted rows on the grid, their rank).

    Vandermonde with Arnoldi (Brubeck, Nakatsukasa & Trefethen, SIAM Rev.
    63, 2021): column 0 is sqrt(w^{2s}) at the points, and column alpha is
    x_i times column alpha - e_i, with i the first coordinate where
    alpha_i > 0.  Each is orthogonalized twice against the columns before
    it (the Hermitian product on complex grids) and normalized, so the rows
    have orthonormal columns on the grid.  Graded lexicographic order is a
    monomial order, so the change of basis to monomials is triangular and
    ``log_lead`` sums the logs of the leading coefficients.

    A column whose norm falls to max(m, n) eps of its norm before
    orthogonalization lies in the span of the earlier ones on the
    positive-weight points: it stays zero on the grid, keeps scale 1 off
    it, and is not counted in the rank.  Complex columns are multiplied
    through their float64 views, whose columns interleave real and
    imaginary parts, in products small enough for one BLAS thread.
    """
    X = np.asarray(points, dtype=complex)
    m, d = X.shape
    X = X.real.copy() if not np.any(X.imag) else X
    n = space_dimension(d, s)
    coord, parent = _recurrence(d, s)
    Q = np.zeros((m, n), dtype=X.dtype)
    F = Q.view(np.float64)
    w = F.shape[1] // n  # floats per entry
    R = np.zeros((w * n, w * n))
    tol = max(m, n) * np.finfo(np.float64).eps
    lead = np.zeros(n)  # log |leading coefficient| of each column
    rank = n
    matmul = np.matmul if m * n * w * w <= _GEMV_MAX_MACS else _matmul  # one-thread sizes need no blocking
    weights = np.sqrt(np.asarray(wvals, dtype=float) ** (2 * s)).astype(X.dtype)
    for j in range(n):
        v = X[:, coord[j]] * Q[:, parent[j]] if j else weights
        V = v.view(np.float64).reshape(m, w)
        norm0 = math.sqrt(np.einsum("ij,ij", V, V))
        Fj = F[:, : w * j]
        for _ in range(2 if j else 0):
            C = matmul(Fj.T, V)  # with G_k the 2 x 2 block of q_k: C = G + J G J^T is the image of Q^H v
            if w == 2:
                G = C.reshape(-1, 2, 2)
                C = (G + G[:, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]]).reshape(-1, 2)
            V -= matmul(Fj, C)
            R[: w * j, w * j : w * (j + 1)] += C
        h = math.sqrt(np.einsum("ij,ij", V, V))
        if h > tol * norm0:
            np.divide(v, h, out=Q[:, j])
        else:
            h, rank = 1.0, rank - 1
        R[range(w * j, w * (j + 1)), range(w * j, w * (j + 1))] = h
        lead[j] = lead[parent[j]] - math.log(h)
    return PolyBasis(d, s, multi_indices(d, s), float(lead.sum()), R), Q, rank


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


def eval_basis_many(basis: PolyBasis, points) -> np.ndarray:
    """Evaluate every basis element at many points; returns an (m, n) array.

    Monomials come back complex; the Arnoldi basis replays its recurrence,
    and comes back real where the recurrence and the points are real.
    """
    pts = as_points(points, basis.dimension)
    m, n = pts.shape[0], basis.n
    if basis.recurrence is None:
        tables = []  # the powers 0..s of each coordinate
        for i in range(basis.dimension):
            t = np.empty((m, basis.degree + 1), dtype=complex)
            t[:, 0] = 1.0
            for k in range(1, basis.degree + 1):
                t[:, k] = t[:, k - 1] * pts[:, i]
            tables.append(t)
        out = np.ones((m, n), dtype=complex)
        for j, alpha in enumerate(basis.indices):
            for i, k in enumerate(alpha):
                if k:
                    out[:, j] *= tables[i][:, k]
        return out
    R = basis.recurrence
    X = pts if R.shape[0] > n or np.any(pts.imag) else pts.real
    if np.iscomplexobj(X) and R.shape[0] == n:
        R = np.kron(R, np.eye(2))  # a real h is the block h I
    coord, parent = _recurrence(basis.dimension, basis.degree)
    Q = np.empty((m, n), dtype=X.dtype)
    F = Q.view(np.float64)
    w = F.shape[1] // n
    Q[:, 0] = 1.0 / R[0, 0]
    for j in range(1, n):
        v = X[:, coord[j]] * Q[:, parent[j]]
        Q[:, j] = (v - _matmul(F[:, : w * j], R[: w * j, w * j : w * (j + 1)]).view(X.dtype)[:, 0]) / R[w * j, w * j]
    return Q


def eval_basis(basis: PolyBasis, z) -> np.ndarray:
    """Evaluate the basis at a single point; returns a length-n vector."""
    return eval_basis_many(basis, z)[0]
