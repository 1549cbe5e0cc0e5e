"""Weighted moment matrices and Christoffel functions.

For a design mu and weight w, the degree-s moment matrix has entries

    M[i, j] = sum_k mu_k * conj(p_i(x_k)) * p_j(x_k) * w(x_k)**(2*s),

the Gram matrix of the basis in the weighted inner product.  Its inverse
Cholesky factor turns the basis into an orthonormal family, and the
Christoffel function

    K(z) = w(z)**(2*s) * p(z)^T inv(M) conj(p(z)) = sum_j |q_j(z)|^2 * w(z)**(2*s)

over that family drives both the optimality certificate and the
prediction-variance identities.  The transpose-conjugate pairing (not
p^H inv(M) p) is what makes the design-mass identity sum(mu_k K(z_k)) = n
exact for complex atoms; the two coincide whenever M is real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .basis import PolyBasis, as_points, eval_basis_many
from .measure import DiscreteDesign, WeightFunction

_PIVOT_REL_TOL = 1e-14  # smallest admissible eigenvalue, relative to n * ||M||_2


class SingularGramError(np.linalg.LinAlgError):
    """Moment matrix is numerically singular or indefinite.

    ``pivot`` is the 1-based index of the Cholesky pivot that failed (or
    nearly failed) to stay positive.
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
    basis).  Singularity is encoded as -inf, never as an exception.
    """

    matrix: np.ndarray
    degree: int
    basis: PolyBasis
    log_det: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def log_det_monomial(self) -> float:
        return self.log_det - 2.0 * self.basis.log_lead


def _real_if_real(B: np.ndarray) -> np.ndarray:
    """B itself, or its real part when no entry has an imaginary part."""
    return B if np.any(B.imag) else B.real


def _assemble(B: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(B^H * coef) B, symmetrized to kill roundoff."""
    M = (B.conj().T * coef) @ B
    return 0.5 * (M + M.conj().T)


@functools.cache
def _lapack(dtype: np.dtype):
    """The (potrf, trtri) pair for one dtype, looked up once per process."""
    return sla.get_lapack_funcs(("potrf", "trtri"), dtype=dtype)


def _cholesky_log_det(M: np.ndarray) -> tuple[np.ndarray | None, float, int]:
    """Attempt a Cholesky factorization; returns (lower factor, log det, pivot).

    ``pivot`` is 0 on success, else the 1-based index where the
    factorization lost positivity (log det is then -inf).
    """
    potrf, _ = _lapack(M.dtype)
    C, info = potrf(M, lower=True, clean=True, overwrite_a=False)
    if info > 0:
        return None, -math.inf, int(info)
    if info < 0:
        raise ValueError(f"illegal moment matrix passed to potrf (argument {-info})")
    return C, 2.0 * float(np.log(C.diagonal().real).sum()), 0


def _inverse_factor(C: np.ndarray) -> np.ndarray:
    """L = inv(C) for a lower Cholesky factor C, so that inv(M) = L* L."""
    _, trtri = _lapack(C.dtype)
    L, _ = trtri(C, lower=True)  # cannot fail: potrf left a positive diagonal
    return L


def _squared_norms(Z: np.ndarray) -> np.ndarray:
    """||z||^2 of each row of Z."""
    F = Z.view(np.float64) if np.iscomplexobj(Z) else Z  # |z|^2 = re^2 + im^2, no hypot
    return np.einsum("ij,ij->i", F, F)


def _christoffel_rows(B: np.ndarray, L: np.ndarray, u: np.ndarray | float) -> np.ndarray:
    """K at the points whose basis values are the rows of B, times u = w**(2*s)."""
    # transpose-conjugate pairing p^T inv(M) conj(p) = ||conj(L) p||^2: keeps
    # the mass identity exact when the moment matrix is genuinely complex
    return _squared_norms(B @ L.conj().T) * u


def _orbit_hessian(Z: np.ndarray, row_orbit: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Hessian of log det M in the orbit masses, from the rows Z = R L^H.

    With M = sum_o (mass_o / c_o) R_o^H R_o the gradient is the orbit-mean
    K and the Hessian is H[o, p] = -tr(A_o A_p) / (c_o c_p), where
    A_o = Z_o^H Z_o = L R_o^H R_o L^H.  ``row_orbit`` numbers the orbits
    0 .. len(counts) - 1.
    """
    rows, n = Z.shape
    S = np.zeros((counts.size, rows))
    S[row_orbit, np.arange(rows)] = 1.0
    G = S @ (Z.conj()[:, :, None] * Z[:, None, :]).reshape(rows, n * n)  # row o: vec(A_o)
    # tr(A_o A_p) = vec(A_o) . conj(vec(A_p)) for Hermitian A_p
    return -(G @ G.conj().T).real / np.outer(counts, counts)


def _orbit_rows(B: np.ndarray, u: np.ndarray, orbits: np.ndarray, counts: np.ndarray):
    """Rows R and their orbit ids, with R[o]^H R[o] = sum over x in o of u_x b_x^H b_x.

    Each orbit's rows sqrt(u) * B[o] are replaced by their QR factor R
    once they outnumber the n columns, so no orbit keeps more than n rows;
    assembling with orbit weights and summing ||R L^H||^2 per orbit then
    gives M and the orbit sums of K exactly.  Real B gives real rows.
    """
    A = np.sqrt(u)[:, None] * _real_if_real(B)
    big = np.flatnonzero(counts > B.shape[1])
    small = counts[orbits] <= B.shape[1]
    R = [A[small]] + [np.linalg.qr(A[orbits == o], mode="r") for o in big]
    ids = [orbits[small]] + [np.full(B.shape[1], o) for o in big]
    return np.concatenate(R), np.concatenate(ids)


def moment_matrix(
    design: DiscreteDesign,
    weight: WeightFunction,
    s: int,
    basis: PolyBasis,
) -> MomentMatrix:
    """Assemble the degree-s weighted moment matrix of a design.

    The result is Hermitian by construction (symmetrized to kill roundoff)
    and positive semidefinite up to rounding.
    """
    if basis.dimension != design.dimension:
        raise ValueError("basis and design dimensions differ")
    B = _real_if_real(eval_basis_many(basis, design.points))
    wv = weight.values(design.points)
    M = _assemble(B, design.weights * wv ** (2 * s))
    _, log_det, _ = _cholesky_log_det(M)
    return MomentMatrix(matrix=M, degree=s, basis=basis, log_det=log_det)


@dataclass(frozen=True)
class ChristoffelEvaluator:
    """Holds the lower-triangular L with inv(M) = L* L.

    The rows of conj(L) express an orthonormal polynomial family
    q = conj(L) p in the basis carried alongside; L has positive diagonal,
    so the factor is the canonical one.
    """

    L: np.ndarray
    basis: PolyBasis
    degree: int
    weight: WeightFunction

    @property
    def n(self) -> int:
        return self.L.shape[0]


def orthonormal_factor(mm: MomentMatrix, weight: WeightFunction) -> ChristoffelEvaluator:
    """Invert the Cholesky factor of a moment matrix.

    Refuses matrices whose smallest eigenvalue does not clear
    n * 1e-14 * ||M||_2, reporting the offending pivot index.  The
    eigenvalues of M = C C* are the squared singular values of C.
    """
    C, _, pivot = _cholesky_log_det(mm.matrix)
    if pivot:
        raise SingularGramError(f"moment matrix is not positive definite at pivot {pivot}", pivot)
    sv = sla.svdvals(C)
    eig_min, threshold = float(sv[-1]) ** 2, mm.n * _PIVOT_REL_TOL * float(sv[0]) ** 2
    if eig_min <= threshold:
        weakest = 1 + int(np.argmin(np.real(np.diag(C))))
        raise SingularGramError(
            f"moment matrix is numerically singular (eig_min {eig_min:.3e} vs "
            f"threshold {threshold:.3e}) at pivot {weakest}",
            weakest,
        )
    return ChristoffelEvaluator(L=_inverse_factor(C), basis=mm.basis, degree=mm.degree, weight=weight)


def christoffel_many(ev: ChristoffelEvaluator, points) -> np.ndarray:
    """Evaluate K(z) = ||conj(L) p(z)||^2 * w(z)**(2*s) at many points."""
    pts = as_points(points, ev.basis.dimension)
    B = _real_if_real(eval_basis_many(ev.basis, pts))
    return _christoffel_rows(B, ev.L, ev.weight.values(pts) ** (2 * ev.degree))


def christoffel(ev: ChristoffelEvaluator, z) -> float:
    """The Christoffel function at a single point."""
    return float(christoffel_many(ev, z)[0])
