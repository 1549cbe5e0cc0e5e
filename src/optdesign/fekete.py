"""Approximate weighted Fekete points and transfinite-diameter tables.

A weighted Fekete configuration maximizes |VDM(z_1..z_n)| * prod w(z_k)^s
over n-subsets of the grid.  The m_s-th root of that maximum is the
s-th order diameter delta_s, whose limit in s is the weighted transfinite
diameter of the space; the 2 m_s-th root of the optimal-design
determinant converges to the same limit, and ``tfd_table`` tabulates both
sequences side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import degree_sum
from .measure import DesignSpace, WeightFunction, _fekete_rows
from .optimal import d_optimal


def _require_positive_degree(s: int) -> None:
    if s < 1:  # m_s = 0: delta_s, the m_s-th root, is undefined
        raise ValueError(f"delta_s needs degree s >= 1, got {s}")


@dataclass(frozen=True)
class FeketeResult:
    """A near-maximal-volume configuration.

    ``weighted_vdm_log`` is log(|VDM| * prod w^s) in the monomial
    normalization, and ``delta_s`` is exp(weighted_vdm_log / m_s) with
    m_s the basis degree sum.
    """

    points: np.ndarray
    weighted_vdm_log: float
    delta_s: float


def approx_fekete(space: DesignSpace, weight: WeightFunction, s: int) -> FeketeResult:
    """Select an approximately extremal n-point configuration on the grid.

    This is the approximate Fekete algorithm of Bos, De Marchi, Sommariva
    & Vianello (2010): a greedy volume-maximizing pick of n rows of the
    weighted Vandermonde matrix (the pivots of a column-pivoted QR),
    followed by sweeps of Fedorov-style single-point exchanges, each of
    which strictly increases the weighted Vandermonde modulus.  These are
    the points every ``d_optimal`` solve starts from.  Needs s >= 1.
    """
    _require_positive_degree(s)
    basis, _, _, sel, log_det = _fekete_rows(space, weight, s)
    log_vdm = log_det - basis.log_lead
    grid = space.grid
    sel_sorted = [sel[i] for i in np.lexsort((grid[sel, 0].imag, grid[sel, 0].real))]
    return FeketeResult(
        points=grid[sel_sorted].copy(),
        weighted_vdm_log=log_vdm,
        delta_s=math.exp(log_vdm / degree_sum(space.dimension, s)),
    )


def sth_diameter(space: DesignSpace, weight: WeightFunction, s: int) -> float:
    """delta_s = (max weighted Vandermonde modulus)^(1/m_s) on the grid."""
    return approx_fekete(space, weight, s).delta_s


@dataclass(frozen=True)
class TfdRow:
    s: int
    m_s: int
    delta_s: float
    gram_root: float
    gap: float


def tfd_table(
    space: DesignSpace,
    weight: WeightFunction,
    s_values,
    *,
    epsilon: float = 1e-5,
    max_iter: int | None = None,
) -> list[TfdRow]:
    """Tabulate delta_s against det(M_s)^(1/(2 m_s)) of the optimal design.

    Both columns converge to the weighted transfinite diameter of the
    space; ``gap`` is their absolute difference.  delta_s comes from the
    Fekete start of the solve (``OptimalResult.fekete_log_vdm``).
    """
    degrees = sorted(int(v) for v in s_values)
    for s in degrees:
        _require_positive_degree(s)
    rows = []
    for s in degrees:
        opt = d_optimal(space, weight, s, epsilon=epsilon, max_iter=max_iter)
        m_s = degree_sum(space.dimension, s)
        delta_s = math.exp(opt.fekete_log_vdm / m_s)
        gram_root = math.exp(opt.log_det / (2.0 * m_s))
        rows.append(TfdRow(s=s, m_s=m_s, delta_s=delta_s, gram_root=gram_root, gap=abs(delta_s - gram_root)))
    return rows

