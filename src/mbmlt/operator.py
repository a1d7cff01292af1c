"""The fractional operator M_H and the covariance R_h, its h-weighted inner
product of indicators.

Fourier convention, fixed once for the whole package:
    u_hat(xi) = integral u(x) exp(-i xi x) dx.
Under this convention (1/C(H)^2) int |xi|^{1-2H} |indicator_hat|^2 dxi = t^{2H},
so the operator applied to 1_[0,t) has unit-compatible normalization and the
process variance at time t is exactly t^{2h(t)}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .specfun import HurstFunctional, gamma_factor, normalizing_constant

__all__ = [
    "mh_indicator",
    "covariance_matrix",
    "CovarianceMatrix",
]

#: relative tolerance for the PSD check: min eigenvalue >= -PSD_TOL * trace
PSD_TOL = 1e-8


def mh_indicator(H, t, u):
    """(M_H 1_[0,t))(u) in closed form.

    Antiderivative evaluation of gamma(H) int_{-u}^{t-u} |y|^{H-3/2} dy:

        (gamma(H)/(H-1/2)) (sgn(t-u)|t-u|^{H-1/2} + sgn(u)|u|^{H-1/2}).

    Continuous in u with a cusp of Hoelder exponent H - 1/2 at u = 0 and
    u = t; decays like |u|^{H-3/2}.  t = 0 gives the zero function.
    H, t and u may be scalars or arrays that broadcast together, so one call
    covers many (H, t) pairs.
    """
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    g = gamma_factor(H)  # raises outside (1/2, 1)
    p = np.asarray(H, dtype=float) - 0.5
    out = (g / p) * (np.sign(t - u) * np.abs(t - u) ** p + np.sign(u) * np.abs(u) ** p)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance of the process on a strictly increasing time grid, with
    the smallest eigenvalue its PSD check computed."""

    values: np.ndarray
    min_eigenvalue: float


def _grid_variance(grid: np.ndarray, hvals: np.ndarray) -> np.ndarray:
    """t^{2h(t)} at the times of the grid, hvals = h(grid); NumericalError
    unless every value is a normal float."""
    with np.errstate(over="ignore", under="ignore"):
        var = grid ** (2.0 * hvals)
    if not (np.isfinite(var).all() and var.min() >= np.finfo(float).tiny):
        raise NumericalError(f"t^(2h(t)) leaves the float range on the grid to T = {grid[-1]:g}")
    return var


def _covariance_values(grid: np.ndarray, h: HurstFunctional) -> np.ndarray:
    """R_h on a strictly increasing grid in (0, T], its diagonal checked by _grid_variance:

        R_h(t,s) = C((h(t)+h(s))/2)^2 / (C(h(t)) C(h(s)))
                   * (t^a + s^a - |t-s|^a) / 2,   a = h(t) + h(s),

    so R_h(t, t) = t^{2h(t)}.  All entries come from one broadcast over the
    grid (h evaluated once per grid point), so assembly is O(s^2) array
    work.  The expression is symmetric in (i, j) operation by operation, so
    the matrix is exactly symmetric.
    """
    hv = h(grid)
    _grid_variance(grid, hv)
    A = hv[:, None] + hv[None, :]
    C = normalizing_constant(hv)
    ratio = normalizing_constant(0.5 * A) ** 2 / (C[:, None] * C[None, :])
    t, s = grid[:, None], grid[None, :]
    return ratio * 0.5 * (t ** A + s ** A - np.abs(t - s) ** A)


def covariance_matrix(grid, h: HurstFunctional) -> CovarianceMatrix:
    """Assemble R_h on a grid and verify positive semidefiniteness.

    The O(s^3) eigenvalue check dominates the O(s^2) assembly.  The exact
    simulator assembles the same matrix without it, since its Cholesky
    factorization fails on a matrix that is not PSD.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] <= 0 or grid[-1] > h.T + 1e-12:
        raise ValueError(f"grid must lie in (0, {h.T}]")
    R = _covariance_values(grid, h)
    min_eig = float(np.linalg.eigvalsh(R)[0])
    if min_eig < -PSD_TOL * np.trace(R):
        raise NumericalError(
            f"covariance not PSD: min eigenvalue {min_eig:g} "
            f"(tolerance {-PSD_TOL * np.trace(R):g}); invalid Hurst function?"
        )
    return CovarianceMatrix(values=R, min_eigenvalue=min_eig)
