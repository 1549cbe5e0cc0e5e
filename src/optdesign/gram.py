"""Weighted moment matrices and Christoffel functions.

For a design mu and weight w, the degree-s moment matrix has entries

    M[i, j] = sum_k mu_k * conj(p_i(x_k)) * p_j(x_k) * w(x_k)**(2*s),

the Gram matrix of the basis in the weighted inner product.  Every moment
matrix is factored from the weighted rows A its caller holds, in the Lagrange
basis of n picked rows (A inv(A[picks]), then ``_factor``).  The inverse factor
turns the basis into an orthonormal family, and the Christoffel function

    K(z) = w(z)**(2*s) * p(z)^T inv(M) conj(p(z)) = sum_j |q_j(z)|^2 * w(z)**(2*s)

over that family drives both the optimality certificate and the
prediction-variance identities.  The transpose-conjugate pairing (not
p^H inv(M) p) is what makes the design-mass identity sum(mu_k K(z_k)) = n
exact for complex atoms; the two coincide whenever M is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import PolyBasis, _inner, _matmul, as_points
from .measure import DiscreteDesign, WeightFunction, _greedy_rows, _squared_norms, weighted_rows

_PIVOT_REL_TOL = 1e-14  # smallest admissible eigenvalue, relative to n * ||M||_2


class SingularGramError(np.linalg.LinAlgError):
    """Moment matrix is numerically singular or indefinite.

    ``pivot`` is 1-based: the greedy pick's count + 1 when fewer than n
    rows are independent, n when a Cholesky factor fails, and for a
    numerically singular M the basis element with the largest diagonal
    entry of inv(M) (for a broken certificate, the largest |L_jj|).
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class MomentMatrix:
    """A Hermitian moment matrix together with its provenance.

    ``log_det`` refers to the basis the matrix was assembled in;
    ``log_det_monomial`` maps it to the monomial normalization via the
    triangular change-of-basis determinant (they coincide for the monomial
    basis).  ``L`` is the inverse factor, L M L^H = I, in the same basis.
    Singularity is encoded as log det -inf, L None and ``pivot`` as in
    ``SingularGramError`` (0 for a factored matrix), never as an exception.
    """

    matrix: np.ndarray
    basis: PolyBasis
    log_det: float
    L: np.ndarray | None
    pivot: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def log_det_monomial(self) -> float:
        return self.log_det - 2.0 * self.basis.log_lead


def _assemble(B: np.ndarray, coef) -> np.ndarray:
    """(B^H * coef) B, symmetrized to kill roundoff; ``coef`` is a scalar or one per row."""
    G = _inner(B * np.reshape(coef, (-1, 1)), B)
    return 0.5 * (G + G.conj().T)


def _cholesky_log_det(M: np.ndarray) -> tuple[np.ndarray | None, float]:
    """(lower Cholesky factor, log det) of M, or (None, -inf) if M has no Cholesky factor."""
    try:
        C = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None, -math.inf
    return C, 2.0 * float(np.log(C.diagonal().real).sum())


def _inverse_factor(C: np.ndarray) -> np.ndarray:
    """L = inv(C) for a lower Cholesky factor C, so that inv(M) = L* L.

    ``inv`` solves with the upper-triangular C^H: its LU factorization
    pivots no row, so the solve is plain back substitution, exactly
    triangular and as accurate as a triangular inverse.
    """
    return np.linalg.inv(C.conj().T).conj().T


def _factor(R: np.ndarray, coef) -> tuple[np.ndarray | None, float]:
    """(L, log det) of M = (R^H * coef) R with L M L^H = I; (None, -inf) if M has no Cholesky factor."""
    C, log_det = _cholesky_log_det(_assemble(R, coef))
    return (None if C is None else _inverse_factor(C)), log_det


def _christoffel_rows(A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """K at the points whose weighted rows (see ``weighted_rows``) are the rows of A."""
    # transpose-conjugate pairing p^T inv(M) conj(p) = ||conj(L) p||^2: keeps
    # the mass identity exact when the moment matrix is genuinely complex
    return _squared_norms(_matmul(A, L.conj().T))


def _orbit_hessian(Z: np.ndarray, row_orbit: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Hessian of log det M in the orbit masses, from the rows Z = R L^H.

    With M = sum_o (mass_o / c_o) R_o^H R_o the gradient is the orbit-mean
    K and the Hessian is H[o, p] = -tr(A_o A_p) / (c_o c_p), where
    A_o = Z_o^H Z_o = L R_o^H R_o L^H.  tr(A_o A_p) sums |z_r z_t^H|^2 over
    the rows r of orbit o and t of orbit p: the squared moduli of P = Z Z^H,
    summed over each orbit's block of rows and columns.  When orbits own
    many rows, summing vec A_o = sum_r conj(z_r) (x) z_r over each orbit
    and taking tr(A_o A_p) = re <vec A_o, vec A_p> is cheaper.
    ``row_orbit`` numbers the orbits 0 .. len(counts) - 1, each of which
    owns at least one row.
    """
    order = np.argsort(row_orbit, kind="stable")
    Zs = Z[order]
    (rows, n), k = Zs.shape, counts.size
    starts = np.searchsorted(row_orbit[order], np.arange(k))
    if rows * rows > (k * k + rows) * n:  # (k^2 + rows) n^2 multiply-adds against rows^2 n for P
        V = np.add.reduceat(np.einsum("ri,rj->ijr", Zs.conj(), Zs).reshape(n * n, rows), starts, axis=1)
        return -_inner(V, V).real / np.outer(counts, counts)
    # a contiguous right factor: numpy hands Zs @ Zs^H to syrk, which
    # threads (301 x 15 rows woke the second OpenBLAS thread)
    P = _matmul(Zs, np.ascontiguousarray(Zs.conj().T))
    T = P.real**2 + P.imag**2 if np.iscomplexobj(P) else P * P
    if rows > k:  # with one row per orbit the block sums only copy
        T = np.add.reduceat(np.add.reduceat(T, starts, axis=0), starts, axis=1)
    return -T / np.outer(counts, counts)


def _orbit_rows(A: np.ndarray, orbits: np.ndarray, counts: np.ndarray):
    """Rows R and their orbit ids, with R[o]^H R[o] = A[o]^H A[o] for each orbit o.

    Each orbit's weighted rows A[o] are replaced by their QR factor R
    once they outnumber the n columns, so no orbit keeps more than n rows;
    assembling with orbit weights and summing ||R L^H||^2 per orbit then
    gives M and the orbit sums of K exactly.  Real A gives real rows.
    The orbits of each size are factored in one stacked QR call, which
    gives the same factors as one call per orbit.
    """
    n = A.shape[1]
    big = np.flatnonzero(counts > n)
    small = counts[orbits] <= n
    order = np.argsort(orbits, kind="stable")  # each orbit's rows, in grid order
    starts = np.cumsum(counts) - counts
    blocks = np.empty((big.size, n, n), dtype=A.dtype)
    for c in np.unique(counts[big]):
        group = np.flatnonzero(counts[big] == c)
        blocks[group] = np.linalg.qr(A[order[starts[big[group], None] + np.arange(c)]], mode="r")
    return np.concatenate([A[small], blocks.reshape(-1, n)]), np.concatenate([orbits[small], np.repeat(big, n)])


def _moment_rows(A: np.ndarray, mass: np.ndarray, basis: PolyBasis) -> MomentMatrix:
    """The moment matrix of the weighted rows A (see ``weighted_rows``) under ``mass``, factored.

    The factor is taken on the rows S = sqrt(mass) A: n of them picked
    greedily, the rows moved to those points' Lagrange basis and factored
    there, so log det and L carry the conditioning of S[picks], not that
    of M = S^H S.
    """
    S = np.sqrt(mass)[:, None] * A
    picks = _greedy_rows(S)
    L, log_det, pivot = None, -math.inf, len(picks) + 1
    if len(picks) == basis.n:
        T = np.linalg.inv(S[picks])  # the rows S T hold the picked points' Lagrange basis
        L, log_det = _factor(_matmul(S, T), 1.0)
        log_det += 2.0 * float(np.linalg.slogdet(S[picks])[1])
        L, pivot = (None, basis.n) if L is None else (_matmul(L, T.conj().T), 0)  # back in the basis of A
    return MomentMatrix(matrix=_assemble(A, mass), basis=basis, log_det=log_det, L=L, pivot=pivot)


def moment_matrix(design: DiscreteDesign, weight: WeightFunction, s: int, basis: PolyBasis) -> MomentMatrix:
    """The degree-s weighted moment matrix of a design, factored by ``_moment_rows`` on its weighted rows.

    The matrix is Hermitian by construction (symmetrized to kill roundoff)
    and positive semidefinite up to rounding.
    """
    if (basis.dimension, basis.degree) != (design.dimension, s):
        raise ValueError("basis and design dimensions, or basis and moment degrees, differ")
    return _moment_rows(weighted_rows(basis, design.points, weight.values(design.points)), design.weights, basis)


@dataclass(frozen=True)
class ChristoffelEvaluator:
    """Holds an inverse factor L of the moment matrix: L M L^H = I, inv(M) = L* L.

    The rows of conj(L) express an orthonormal polynomial family
    q = conj(L) p in the basis carried alongside.
    """

    L: np.ndarray
    basis: PolyBasis
    weight: WeightFunction


def orthonormal_factor(mm: MomentMatrix, weight: WeightFunction) -> ChristoffelEvaluator:
    """The orthonormal family of a moment matrix, from the inverse factor it carries.

    Refuses a matrix without a factor, and one whose smallest eigenvalue
    does not clear n * 1e-14 * ||M||_2; the pivot reported for the latter
    is the basis element with the largest diagonal entry of inv(M) = L* L.
    """
    if mm.L is None:
        raise SingularGramError(f"moment matrix is not positive definite at pivot {mm.pivot}", mm.pivot)
    eig = np.linalg.eigvalsh(mm.matrix)
    eig_min, threshold = float(eig[0]), mm.n * _PIVOT_REL_TOL * float(np.abs(eig).max())
    if eig_min <= threshold:
        weakest = 1 + int(np.argmax(np.sum(np.abs(mm.L) ** 2, axis=0)))
        raise SingularGramError(
            f"moment matrix is numerically singular (eig_min {eig_min:.3e} vs "
            f"threshold {threshold:.3e}) at pivot {weakest}",
            weakest,
        )
    return ChristoffelEvaluator(L=mm.L, basis=mm.basis, weight=weight)


def christoffel_many(ev: ChristoffelEvaluator, points) -> np.ndarray:
    """Evaluate K(z) = ||conj(L) p(z)||^2 * w(z)**(2*s) at many points."""
    pts = as_points(points, ev.basis.dimension)
    return _christoffel_rows(weighted_rows(ev.basis, pts, ev.weight.values(pts)), ev.L)


def christoffel(ev: ChristoffelEvaluator, z) -> float:
    """The Christoffel function at a single point."""
    return float(christoffel_many(ev, z)[0])
