"""Open-knot B-spline and NURBS bases on a 1-D parameter interval.

Knot vectors (uniform, or geometrically clustered toward a kink), one batched
evaluation kernel and Greville abscissae.  A knot vector of degree ``p`` is
*open*: its first and last knots repeat exactly ``p + 1`` times.  The ``n``
basis functions are indexed ``0 .. n-1`` in code.

Every evaluation goes through :func:`basis_table`.  It puts each of ``m``
points in a non-empty knot span ``[xi_i, xi_(i+1))``.  The last span is
right-closed, so partition of unity holds on the closed interval, and a
point on an interior knot takes the span that starts there: at a repeated
knot, where the basis drops continuity, it gives the right one-sided limit.
Points outside the knot vector's interval raise ``ValueError``.  The kernel
returns ``first``, shape ``(m,)``, and the table ``R``, shape
``(m, order + 1, p + 1)``: ``R[i, k, j]`` is the k-th parametric derivative
(``order <= 2``) of function ``first[i] + j`` at point ``i``, the only
``p + 1`` functions nonzero there.
B-spline rows come from the triangular scheme of Piegl and Tiller's algorithm
A2.3 (*The NURBS Book*), which never forms the ``0/0`` quotients of the
Cox-de Boor recursion; the weights then enter once, through the quotient rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnotVector",
    "NurbsBasis",
    "make_uniform_open_knots",
    "make_refined_open_knots",
    "basis_table",
    "contract_table",
    "eval_nurbs_all",
    "eval_spline_many",
    "greville_abscissae",
]


@dataclass(frozen=True)
class KnotVector:
    """Non-decreasing open knot vector with polynomial degree.

    Attributes
    ----------
    values : ndarray
        The knots, length ``n_basis + degree + 1``.
    degree : int
        Polynomial degree ``p >= 1``.
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        p = self.degree
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        if vals.ndim != 1 or len(vals) < 2 * (p + 1):
            raise ValueError("knot vector too short for degree")
        if np.any(np.diff(vals) < 0):
            raise ValueError("knot vector must be non-decreasing")
        if not (np.all(vals[: p + 1] == vals[0]) and vals[p + 1] > vals[p]):
            raise ValueError("knot vector must be open: first knot repeated exactly degree+1 times")
        if not (np.all(vals[-(p + 1):] == vals[-1]) and vals[-(p + 2)] < vals[-1]):
            raise ValueError("knot vector must be open: last knot repeated exactly degree+1 times")
        # interior multiplicity at most p, else the basis loses continuity entirely
        interior = vals[p + 1: -(p + 1)]
        if interior.size:
            uniq, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                bad = uniq[counts > p][0]
                raise ValueError(f"interior knot {bad} has multiplicity > degree")

    @property
    def n_basis(self) -> int:
        return len(self.values) - self.degree - 1

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (span boundaries).

        The knots are non-decreasing, so each differs from its left
        neighbour exactly when it is new.  ``np.unique`` would give the same
        array but imports ``numpy.ma`` on its first call.
        """
        v = self.values
        return v[np.concatenate(([True], v[1:] != v[:-1]))]


@dataclass(frozen=True)
class NurbsBasis:
    """A B-spline knot vector paired with positive rational weights."""

    knots: KnotVector
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.knots.n_basis,):
            raise ValueError(
                f"need {self.knots.n_basis} weights, got {w.shape}")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")

    @property
    def n_basis(self) -> int:
        return self.knots.n_basis

    @property
    def degree(self) -> int:
        return self.knots.degree


def make_uniform_open_knots(n_elements: int, degree: int) -> KnotVector:
    """Open knot vector with ``n_elements`` equal spans on [0, 1]."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    interior = np.linspace(0.0, 1.0, n_elements + 1)[1:-1]
    vals = np.concatenate([
        np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return KnotVector(vals, degree)


def make_refined_open_knots(n_elements: int, degree: int,
                            kink_xi: float) -> KnotVector:
    """Open knots on [0, 1] geometrically clustered toward an interior kink.

    The ``n_elements`` spans split between the two sides of ``kink_xi`` in
    proportion to their lengths, at least one on each.  Each side's spans
    form a geometric sequence shrinking toward the kink, its largest 100
    times its smallest, so refining halves every span instead of piling
    new spans onto the kink.  The kink is a knot of multiplicity
    ``degree``: the basis is C^0 there, as the payoff is, and from degree
    2 the kink is a repeated knot.
    """
    if not 0.0 < kink_xi < 1.0:
        raise ValueError("kink_xi must lie strictly inside (0, 1)")
    if n_elements < 2:
        raise ValueError("refined knots need n_elements >= 2, one span on "
                         f"each side of the kink, got {n_elements}")
    n_left = min(max(int(round(n_elements * kink_xi)), 1), n_elements - 1)

    def breaks(a: float, b: float, n: int) -> np.ndarray:
        # n spans from a toward b, 100:1; breakpoints exclude a and b
        ratio = 100.0 ** (-1.0 / max(n - 1, 1))
        w = np.full(n, ratio) ** np.arange(n)
        w *= (b - a) / w.sum()
        return (a + np.cumsum(w))[:-1]

    interior = np.concatenate([
        breaks(0.0, kink_xi, n_left),
        np.full(degree, kink_xi),
        breaks(1.0, kink_xi, n_elements - n_left)[::-1],
    ])
    vals = np.concatenate([
        np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return KnotVector(vals, degree)


def _spans(knots: KnotVector, xis: np.ndarray) -> np.ndarray:
    """Span index ``i`` with ``xi in [xi_i, xi_(i+1))`` for every point."""
    vals = knots.values
    inside = (xis >= vals[0]) & (xis <= vals[-1])
    if not np.all(inside):
        bad = xis[~inside][0]
        raise ValueError(f"evaluation point {bad} outside [{vals[0]}, {vals[-1]}]")
    span = np.searchsorted(vals, xis, side="right") - 1
    # open knots: clipping gives the right-closed last span and the first span
    return np.clip(span, knots.degree, knots.n_basis - 1)


def basis_table(basis: NurbsBasis, xis,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """``(first, R)``: the nonzero NURBS functions and their derivatives up
    to ``order`` (0, 1 or 2) at the points ``xis``; see the module docstring.
    Equal weights reduce the rational basis to the B-splines exactly.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    vals, p = basis.knots.values, basis.degree
    xis = np.asarray(xis, dtype=float).reshape(-1)
    span = _spans(basis.knots, xis)
    j = np.arange(p + 1)
    left = xis[:, None] - vals[span[:, None] + 1 - j]   # xi - xi_(span+1-j)
    right = vals[span[:, None] + j] - xis[:, None]      # xi_(span+j) - xi
    # A2.3's triangle: N[q] holds the q+1 degree-q B-splines alive on the
    # span, D[q][r] the support length of N[q-1][r]
    N, D = [np.ones((len(xis), 1))], [None]
    for q in range(1, p + 1):
        D.append(right[:, 1:q + 1] + left[:, q:0:-1])
        t = N[-1] / D[-1]
        N.append(np.pad(right[:, 1:q + 1] * t, ((0, 0), (0, 1)))
                 + np.pad(left[:, q:0:-1] * t, ((0, 0), (1, 0))))
    # A2.3's derivative coefficients a[r, t] of each function r, where term
    # t uses degree-q column c = r - k + t when 0 <= c <= q; zero above p
    ders = np.zeros((len(xis), order + 1, p + 1))
    ders[:, 0] = N[p]
    a = np.ones((len(xis), p + 1, 1))
    fact = float(p)
    for k in range(1, min(order, p) + 1):
        q = p - k
        c = j[:, None] - k + np.arange(k + 1)
        live = (c >= 0) & (c <= q)
        c = np.clip(c, 0, q)
        diff = np.pad(a, ((0, 0), (0, 0), (0, 1))) - np.pad(a, ((0, 0), (0, 0), (1, 0)))
        a = np.where(live, diff / D[q + 1][:, c], 0.0)
        d = np.zeros((len(xis), p + 1))
        for t in range(k + 1):
            d += a[:, :, t] * N[q][:, c[:, t]]
        ders[:, k] = d * fact
        fact *= p - k
    # one quotient rule: R = w N / W with W = sum_j w_j N_j, differentiated.
    # W is a matrix-vector product per point, not a .sum(): second
    # derivatives cancel terms ~1/h^2 larger than the result, so the order of
    # this sum shows in gamma, and per point it cannot depend on the batch
    w = basis.weights[span[:, None] - p + j]
    W = np.matmul(ders, w[:, :, None])
    wn = w[:, None, :] * ders
    R = np.empty_like(ders)
    R[:, 0] = wn[:, 0] / W[:, 0]
    if order >= 1:
        R[:, 1] = (wn[:, 1] - R[:, 0] * W[:, 1]) / W[:, 0]
    if order >= 2:
        R[:, 2] = (wn[:, 2] - 2.0 * R[:, 1] * W[:, 1] - R[:, 0] * W[:, 2]) / W[:, 0]
    return span - p, R


def contract_table(first: np.ndarray, R: np.ndarray,
                   coeffs: np.ndarray) -> np.ndarray:
    """Derivatives of the expansion with ``coeffs``, ``(m, order + 1)``.

    Each entry is one dot product of a table row with the coefficients of
    its ``p + 1`` functions.
    """
    c = coeffs[first[:, None] + np.arange(R.shape[2])]
    return np.matmul(R[:, :, None, :], c[:, None, :, None])[:, :, 0, 0]


def eval_nurbs_all(basis: NurbsBasis, xi, order: int = 0) -> np.ndarray:
    """``order``-th derivative of every NURBS function, as dense rows.

    A scalar ``xi`` gives one row of length ``n_basis``; an array gives one
    row per point.
    """
    xis = np.asarray(xi, dtype=float)
    first, R = basis_table(basis, xis, order)
    out = np.zeros((len(first), basis.n_basis))
    cols = first[:, None] + np.arange(basis.degree + 1)
    np.put_along_axis(out, cols, R[:, order], axis=1)
    return out.reshape(xis.shape + (basis.n_basis,))


def greville_abscissae(knots: KnotVector) -> np.ndarray:
    """Greville points ``(xi_(i+1) + ... + xi_(i+p)) / p`` for each function.

    The first and last coincide with the interval endpoints, where the open
    basis is interpolatory.
    """
    p = knots.degree
    windows = np.lib.stride_tricks.sliding_window_view(knots.values[1:-1], p)
    return windows.sum(axis=1) / p


def eval_spline_many(basis: NurbsBasis, coeffs: np.ndarray, xis: np.ndarray,
                     order: int = 0) -> np.ndarray:
    """Values (or a derivative) of a NURBS expansion at many parameter points."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n_basis,):
        raise ValueError("coefficient vector length mismatch")
    first, R = basis_table(basis, xis, order)
    return contract_table(first, R, coeffs)[:, order]
