"""Galerkin matrices, boundary-column lifting, and Greville collocation.

The physical interval maps affinely onto the parameter interval [0, 1] on
which every knot vector of the package lies, so every
inner product is computed in parameter space with a constant metric factor:

* mass      M_ij = (R_j, R_i)_xi            scaled by |Omega| / |Omega_xi|
* stiffness K_ij = (R_j', R_i')_xi          scaled by |Omega_xi| / |Omega|
* advection N_ij = (R_j, R_i')_xi           scale-free

with the derivative on the *test* function in N, matching the weak form
-Y1 (grad w, grad z) - Y2 (w, grad z) - Y3 (w, z).  The discrete operator of
a PDE with coefficients (Y1, Y2, Y3) is then A = Y1 K + Y2 N + Y3 M.

Row indices run over the n-2 interior test functions; the two columns that
couple interior rows to the boundary coefficients w_1, w_n are split off and
stored densely (they only have entries near the ends anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import NurbsBasis, basis_table, greville_abscissae
from .linsolve import BandedMatrix
from .quadrature import QuadratureRule

__all__ = ["PhysicalMap", "GalerkinSystem", "assemble", "Collocation"]


@dataclass(frozen=True)
class PhysicalMap:
    """Affine map between [x_min, x_max] and the parameter interval [0, 1]."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_min < x_max, got {self.x_min:g} "
                             f">= {self.x_max:g}")

    @property
    def dx_dxi(self) -> float:
        return self.x_max - self.x_min

    @property
    def dxi_dx(self) -> float:
        return 1.0 / self.dx_dxi

    def to_physical(self, xi):
        return self.x_min + np.asarray(xi) * self.dx_dxi

    def to_parameter(self, x):
        return (np.asarray(x) - self.x_min) * self.dxi_dx


@dataclass
class GalerkinSystem:
    """Interior Galerkin matrices plus boundary coupling columns.

    ``mass``/``stiffness``/``advection`` are (n-2) x (n-2) banded with
    bandwidth = degree; ``*_cols`` hold the two full columns (basis indices
    0 and n-1) restricted to interior rows, shape (n-2, 2).
    """

    n_full: int
    degree: int
    mass: BandedMatrix
    stiffness: BandedMatrix
    advection: BandedMatrix
    mass_cols: np.ndarray
    stiffness_cols: np.ndarray
    advection_cols: np.ndarray

    def operator(self, coeffs) -> tuple[BandedMatrix, np.ndarray]:
        """A = Y1 K + Y2 N + Y3 M and its boundary columns, per unknown."""
        y1, y2, y3 = coeffs
        a = self.stiffness.scaled(y1) + self.advection.scaled(y2) \
            + self.mass.scaled(y3)
        cols = y1 * self.stiffness_cols + y2 * self.advection_cols \
            + y3 * self.mass_cols
        return a, cols


def _split_full(full: BandedMatrix) -> tuple[BandedMatrix, np.ndarray]:
    """Drop boundary rows/columns; return interior band + boundary columns."""
    n, k = full.n, full.kband
    near = min(k, n - 2)    # interior rows within the band of a boundary column
    cols = np.zeros((n - 2, 2))
    cols[:near, 0] = full.data[k + 1:k + 1 + near, 0]
    cols[-near:, 1] = full.data[k - near:k, n - 1]
    inner = BandedMatrix(n - 2, k, full.data[:, 1:n - 1].copy())
    # zero band slots that referenced the dropped rows
    i = np.arange(2 * k + 1)[:, None] - k + np.arange(n - 2)
    inner.data[(i < 0) | (i >= n - 2)] = 0.0
    return inner, cols


# spans per basis table in ``assemble``
_BLOCK_SPANS = 256


def assemble(basis: NurbsBasis, pmap: PhysicalMap,
             rule: QuadratureRule) -> GalerkinSystem:
    """Gauss assembly of mass, stiffness and advection matrices.

    The spans are taken in blocks of ``_BLOCK_SPANS``: one basis table
    covers the quadrature points of a block, whose local matrices are
    formed together and added into the three full bands in span order.
    The scratch memory is thus bounded by the block, not the mesh; a table
    of every span at once took 13.6 times the bytes of the system at 16,384
    degree-1 elements.  Table rows depend only on their own point and
    every band entry receives its contributions in span order, so the
    result does not depend on the block size, bit for bit.  The metric
    factors and the split into interior band and boundary columns come
    once, at the end.
    """
    p = basis.degree
    n = basis.n_basis
    if n < 3:
        raise ValueError("need at least one interior basis function")
    breaks = basis.knots.breakpoints
    half = 0.5 * (breaks[1:] - breaks[:-1])
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    nq = len(rule.nodes)
    jj, ii = np.meshgrid(np.arange(p + 1), np.arange(p + 1))
    # (test derivative, trial derivative) of mass, stiffness and advection:
    # the advection matrix carries the derivative on the test (row) function
    pairs = ((0, 0), (1, 1), (1, 0))
    full = np.zeros((len(pairs), 2 * p + 1, n))
    for lo in range(0, len(half), _BLOCK_SPANS):
        h = half[lo:lo + _BLOCK_SPANS, None]
        first, R = basis_table(basis, mid[lo:lo + _BLOCK_SPANS, None]
                               + h * rule.nodes, 1)
        R = R.reshape(len(h), nq, 2, p + 1)
        w = (rule.weights * h)[:, :, None, None]
        band = (p + ii - jj, first[::nq, None, None] + jj)
        for data, (test, trial) in zip(full, pairs):
            loc = w * np.einsum("eqi,eqj->eqij", R[:, :, test],
                                R[:, :, trial])
            np.add.at(data, band, loc.sum(axis=1))
    parts = []
    for data, scale in zip(full, (pmap.dx_dxi, pmap.dxi_dx, 1.0)):
        data *= scale
        parts.append(_split_full(BandedMatrix(n, p, data)))
    (mass, mass_cols), (stiff, stiff_cols), (adv, adv_cols) = parts
    return GalerkinSystem(n, p, mass, stiff, adv, mass_cols, stiff_cols,
                          adv_cols)


class Collocation:
    """Square collocation system at the Greville points ``points``:
    ``matrix`` maps coefficients to the spline's values there."""

    def __init__(self, basis: NurbsBasis):
        self.points = greville_abscissae(basis.knots)
        self.matrix, dropped = _point_rows(basis, self.points)
        if np.any(dropped != 0.0):
            raise ValueError("collocation point outside its own support band")

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        return self.matrix.matvec(coeffs)


def _point_rows(basis: NurbsBasis,
                points: np.ndarray) -> tuple[BandedMatrix, np.ndarray]:
    """Band whose row i holds the function values at ``points[i]``.

    Also returns the entries that fall outside the band, which are dropped.
    """
    n, p = basis.n_basis, basis.degree
    first, R = basis_table(basis, points, 0)
    cols = first[:, None] + np.arange(p + 1)
    offset = np.arange(n)[:, None] - cols
    inside = np.abs(offset) <= p
    mat = BandedMatrix(n, p)
    mat.data[p + offset[inside], cols[inside]] = R[:, 0][inside]
    return mat, R[:, 0][~inside]
