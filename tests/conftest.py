"""Shared fixtures.

Optimal-design solves dominate the suite's runtime, so they are cached
per session and shared between test modules.  Each cache entry records
the wall time of the original solve; tests with runtime budgets charge
that time, not the (free) cache hit.
"""

import time

import mpmath
import pytest

from optdesign import d_optimal, disk, gaussian_weight, interval, unit_weight


@pytest.fixture(scope="session")
def cheb_interval():
    return interval(a=1.0, grid=401, spacing="chebyshev")


@pytest.fixture(scope="session")
def gauss_disk():
    return disk()


@pytest.fixture(scope="session")
def cached_solve(cheb_interval, gauss_disk):
    """solve(kind, s, epsilon) -> (OptimalResult, seconds of the original solve)."""
    problems = {
        "interval": (cheb_interval, unit_weight()),
        "disk": (gauss_disk, gaussian_weight()),
    }
    cache = {}

    def solve(kind, s, epsilon=1e-5):
        key = (kind, s, epsilon)
        if key not in cache:
            space, weight = problems[kind]
            start = time.perf_counter()
            result = d_optimal(space, weight, s, epsilon=epsilon)
            cache[key] = (result, time.perf_counter() - start)
        return cache[key]

    return solve


@pytest.fixture(scope="session")
def mp_dirichlet_moment():
    """moment(kind, alpha): E x^alpha of the unit ball or simplex measure, from its Dirichlet-type Gamma formula, to 40 digits.

    Ball, density ~ (1 - |x|^2)^(-1/2): prod G((a_i+1)/2) / G(1/2) * G((d+1)/2) / G((|a|+d+1)/2), even a_i.
    Simplex, Dirichlet(1/2, ..., 1/2) in d + 1 parts: prod G(a_i+1/2) / G(1/2) * G((d+1)/2) / G((d+1)/2+|a|).
    """

    def moment(kind, alpha):
        d, k = len(alpha), sum(alpha)
        with mpmath.workdps(40):
            g, half = mpmath.gamma, mpmath.mpf(1) / 2
            if kind == "ball":
                if any(j % 2 for j in alpha):
                    return mpmath.mpf(0)
                return mpmath.fprod(g(half * (j + 1)) / g(half) for j in alpha) * g(half * (d + 1)) / g(half * (k + d + 1))
            return mpmath.fprod(g(j + half) / g(half) for j in alpha) * g(half * (d + 1)) / g(half * (d + 1) + k)

    return moment
