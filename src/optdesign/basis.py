"""Multivariate polynomial bases and their evaluation.

The public contract is the monomial basis in graded lexicographic order
(constant first, then degree-1 terms with the leading coordinate first,
and so on).  A numerically stabilized basis spanning the same space is
available for internal use; every quantity that depends on the basis
normalization can be mapped back to the monomial scale through the
triangular change-of-basis determinant exposed here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Degrees beyond these are legal but increasingly fragile in double
# precision; construction warns instead of refusing.
_DEGREE_CAPS = {1: 24, 2: 12}
_DEGREE_CAP_HIGH_DIM = 8


class ConditioningWarning(RuntimeWarning):
    """Requested degree exceeds the double-precision comfort zone."""


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


@dataclass(frozen=True)
class PolyBasis:
    """An ordered basis of the degree-<=s polynomials in d variables.

    Attributes
    ----------
    dimension, degree : int
        Ambient dimension d and maximal total degree s.
    indices : tuple of exponent tuples
        Multi-indices in graded lexicographic order, shared by every kind.
    kind : str
        ``"monomial"`` or ``"stabilized"``.
    families : tuple or None
        For the stabilized kind, one ``(family, center, scale)`` triple per
        coordinate; ``family`` is ``"chebyshev"`` (real coordinates) or
        ``"scaled"`` (complex coordinates, shifted scaled powers).
    log_lead : float
        log |det T| of the lower-triangular matrix T expressing this basis
        in monomials.  Zero for the monomial kind.  Basis-dependent
        determinants are mapped to the monomial normalization by
        subtracting ``log_lead`` (once per Vandermonde factor).
    """

    dimension: int
    degree: int
    indices: tuple[tuple[int, ...], ...]
    kind: str = "monomial"
    families: tuple[tuple[str, complex, float], ...] | None = None
    log_lead: float = 0.0

    @property
    def n(self) -> int:
        return len(self.indices)


def _warn_if_extreme(d: int, s: int) -> None:
    cap = _DEGREE_CAPS.get(d, _DEGREE_CAP_HIGH_DIM)
    if s > cap:
        warnings.warn(
            f"degree {s} in dimension {d} exceeds the double-precision "
            f"comfort zone (cap {cap}); results may lose accuracy",
            ConditioningWarning,
            stacklevel=3,
        )


def monomial_basis(d: int, s: int) -> PolyBasis:
    """The monomial basis of degree <= s in graded lexicographic order."""
    n = space_dimension(d, s)
    idx = multi_indices(d, s)
    assert len(idx) == n
    _warn_if_extreme(d, s)
    return PolyBasis(dimension=d, degree=s, indices=idx)


def stabilized_basis(
    d: int,
    s: int,
    centers: np.ndarray,
    scales: np.ndarray,
    complex_coords: np.ndarray,
) -> PolyBasis:
    """A better-conditioned basis of the same space.

    Real coordinates use Chebyshev polynomials mapped to
    ``[center - scale, center + scale]``; complex coordinates use shifted
    scaled powers ``((z - center)/scale)**k``.  Both are lower-triangular
    transforms of the monomials in any graded order, so determinants shift
    by the product of leading coefficients recorded in ``log_lead``.
    """
    n = space_dimension(d, s)
    idx = multi_indices(d, s)
    _warn_if_extreme(d, s)
    centers = np.asarray(centers, dtype=complex).reshape(d)
    scales = np.asarray(scales, dtype=float).reshape(d)
    complex_coords = np.asarray(complex_coords, dtype=bool).reshape(d)
    if np.any(scales <= 0):
        raise ValueError("stabilized basis scales must be positive")

    families = tuple(
        ("scaled" if complex_coords[i] else "chebyshev", complex(centers[i]), float(scales[i]))
        for i in range(d)
    )
    # per-coordinate leading coefficient of the degree-k family member:
    # chebyshev: 2**(k-1) / scale**k for k >= 1, scaled powers: scale**-k
    lead = np.zeros((d, s + 1))
    for i, (fam, _, h) in enumerate(families):
        for k in range(s + 1):
            lead[i, k] = -k * math.log(h)
            if fam == "chebyshev" and k >= 1:
                lead[i, k] += (k - 1) * math.log(2.0)
    log_lead = float(sum(lead[i, k] for alpha in idx for i, k in enumerate(alpha)))
    assert len(idx) == n
    return PolyBasis(
        dimension=d,
        degree=s,
        indices=idx,
        kind="stabilized",
        families=families,
        log_lead=log_lead,
    )


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


def _coordinate_tables(basis: PolyBasis, pts: np.ndarray) -> list[np.ndarray]:
    # values of the 1-d family members of each coordinate, degrees 0..s
    m = pts.shape[0]
    s = basis.degree
    tables = []
    for i in range(basis.dimension):
        t = np.empty((m, s + 1), dtype=complex)
        t[:, 0] = 1.0
        if basis.kind == "monomial":
            u = pts[:, i]
            for k in range(1, s + 1):
                t[:, k] = t[:, k - 1] * u
        else:
            fam, c, h = basis.families[i]
            u = (pts[:, i] - c) / h
            if s >= 1:
                t[:, 1] = u
            if fam == "chebyshev":
                for k in range(2, s + 1):
                    t[:, k] = 2.0 * u * t[:, k - 1] - t[:, k - 2]
            else:
                for k in range(2, s + 1):
                    t[:, k] = u * t[:, k - 1]
        tables.append(t)
    return tables


def eval_basis_many(basis: PolyBasis, points) -> np.ndarray:
    """Evaluate every basis element at many points; returns an (m, n) array."""
    pts = as_points(points, basis.dimension)
    tables = _coordinate_tables(basis, pts)
    out = np.ones((pts.shape[0], basis.n), dtype=complex)
    for j, alpha in enumerate(basis.indices):
        for i, k in enumerate(alpha):
            if k:
                out[:, j] *= tables[i][:, k]
    return out


def eval_basis(basis: PolyBasis, z) -> np.ndarray:
    """Evaluate the basis at a single point; returns a length-n vector."""
    return eval_basis_many(basis, z)[0]
