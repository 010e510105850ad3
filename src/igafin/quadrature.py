"""Gauss-Legendre quadrature rules on the reference interval [-1, 1].

Nodes are the roots of the Legendre polynomial P_n, found by Newton iteration
from Chebyshev initial guesses; weights follow from w_i = 2 / ((1 - x_i^2)
P_n'(x_i)^2).  No tabulated rules, so any order works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_legendre_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Reference nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def _legendre_and_deriv(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), n >= 1, by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` points, exact for degree 2*order - 1.

    Roots converge to machine precision (1e-15 increments) in a handful of
    Newton steps from the Chebyshev guesses; symmetry is enforced exactly and
    the weights sum to 2.
    """
    n = order
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return QuadratureRule(np.zeros(1), np.full(1, 2.0))
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_deriv(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])  # symmetrise
    _, dp = _legendre_and_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadratureRule(x, w)
