"""Approximate weighted Fekete points and transfinite-diameter tables.

A weighted Fekete configuration maximizes |VDM(z_1..z_n)| * prod w(z_k)^s
over n-subsets of the grid.  The 2 m_s-th root of that maximum is the
s-th order diameter delta_s, whose limit in s is the weighted transfinite
diameter of the space; the matching root of the optimal-design
determinant converges to the same limit, and ``tfd_table`` tabulates both
sequences side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import degree_sum
from .measure import _FEKETE_PASSES, DesignSpace, WeightFunction, _exchange, _greedy_rows, basis_for_space, weighted_rows
from .optimal import OptimalResult, d_optimal


@dataclass(frozen=True)
class FeketeResult:
    """A near-maximal-volume configuration.

    ``weighted_vdm_log`` is log(|VDM| * prod w^s) in the monomial
    normalization, and ``delta_s`` is exp(weighted_vdm_log / m_s) with
    m_s the basis degree sum.
    """

    points: np.ndarray
    indices: np.ndarray
    weighted_vdm_log: float
    delta_s: float
    method: str


def approx_fekete(
    space: DesignSpace,
    weight: WeightFunction,
    s: int,
    *,
    exchange_passes: int = _FEKETE_PASSES,
) -> FeketeResult:
    """Select an approximately extremal n-point configuration on the grid.

    This is the approximate Fekete algorithm of Bos, De Marchi, Sommariva
    & Vianello (2010): a greedy volume-maximizing pick of n rows of the
    weighted Vandermonde matrix (the pivots of a column-pivoted QR),
    followed by up to ``exchange_passes`` sweeps of Fedorov-style
    single-point exchanges, each of which strictly increases the weighted
    Vandermonde modulus.  The rows are real on real grids.
    """
    if exchange_passes < 0:
        raise ValueError(f"exchange_passes must be nonnegative, got {exchange_passes}")
    basis = basis_for_space(space, s)
    n = basis.n
    grid = space.grid
    m = grid.shape[0]
    if m < n:
        raise ValueError(f"grid of {m} points cannot support {n} Fekete points")
    A = weighted_rows(basis, grid, weight.values(grid))

    sel = _greedy_rows(A)
    if len(sel) < n:
        raise ValueError("weighted Vandermonde is rank-deficient on this grid")
    sel = _exchange(A, sel, exchange_passes)
    log_vdm = float(np.linalg.slogdet(A[sel])[1]) - basis.log_lead

    sel_sorted = [sel[i] for i in np.lexsort((grid[sel, 0].imag, grid[sel, 0].real))]
    m_s = degree_sum(space.dimension, s)
    return FeketeResult(
        points=grid[sel_sorted].copy(),
        indices=np.asarray(sel_sorted),
        weighted_vdm_log=log_vdm,
        delta_s=math.exp(log_vdm / m_s) if m_s > 0 else math.nan,
        method="greedy+exchange" if exchange_passes > 0 else "greedy",
    )


def sth_diameter(space: DesignSpace, weight: WeightFunction, s: int, **opts) -> float:
    """delta_s = (max weighted Vandermonde modulus)^(1/m_s) on the grid."""
    return approx_fekete(space, weight, s, **opts).delta_s


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
    exchange_passes: int = _FEKETE_PASSES,
    optimal_results: dict[int, OptimalResult] | None = None,
) -> list[TfdRow]:
    """Tabulate delta_s against det(M_s)^(1/(2 m_s)) of the optimal design.

    Both columns converge to the weighted transfinite diameter of the
    space; ``gap`` is their absolute difference.  Precomputed optimal
    solves may be passed in to avoid repeating them.
    """
    rows = []
    for s in sorted(int(v) for v in s_values):
        fek = approx_fekete(space, weight, s, exchange_passes=exchange_passes)
        opt = None if optimal_results is None else optimal_results.get(s)
        if opt is None:
            opt = d_optimal(space, weight, s, epsilon=epsilon, max_iter=max_iter)
        m_s = degree_sum(space.dimension, s)
        gram_root = math.exp(opt.log_det / (2.0 * m_s))
        rows.append(
            TfdRow(
                s=s,
                m_s=m_s,
                delta_s=fek.delta_s,
                gram_root=gram_root,
                gap=abs(fek.delta_s - gram_root),
            )
        )
    return rows


def tfd_to_csv(rows: list[TfdRow]) -> str:
    """CSV text for a transfinite-diameter table (LF line endings)."""
    lines = ["s,m_s,delta_s,gram_root,gap"]
    for r in rows:
        lines.append(f"{r.s},{r.m_s},{r.delta_s:.17g},{r.gram_root:.17g},{r.gap:.17g}")
    return "\n".join(lines) + "\n"
