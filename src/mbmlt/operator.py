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


def _grid_scale(grid: np.ndarray, hvals: np.ndarray, times: int = 1) -> np.ndarray:
    """t^{times h(t)} on the grid, hvals = h(grid): the paths' scale, or the
    diagonal of R_h at times = 2; NumericalError unless all are normal floats."""
    with np.errstate(over="ignore", under="ignore"):
        scale = grid ** (times * hvals)
    if not (np.isfinite(scale).all() and scale.min() >= np.finfo(float).tiny):
        power = "h(t)" if times == 1 else f"{times}h(t)"
        raise NumericalError(f"t^({power}) leaves the float range on the grid to T = {grid[-1]:g}")
    return scale


def _correlation_values(grid: np.ndarray, h: HurstFunctional):
    """The correlation rho of R_h on a strictly increasing grid in (0, T] and
    the scale t^{h(t)} (_grid_scale), so R_h = D rho D with D = diag(scale):

        R_h(t,s) = c(t,s) (t^a + s^a - |t-s|^a) / 2,   a = h(t) + h(s),
        c(t,s)   = C((h(t)+h(s))/2)^2 / (C(h(t)) C(h(s))),
        rho(t,s) = c(t,s) (P(t,s) + P(s,t) - U(t,s) U(s,t)) / 2,
        P(t,s)   = (t/s)^{h(s)},   U(t,s) = (|t-s|/t)^{h(t)}.

    Every term is a ratio of grid times, so rho does not depend on the scale
    of T.  One broadcast over the grid, two powers per entry (P(s,t) and
    U(s,t) are transposes), so rho is exactly symmetric with diagonal 1.
    """
    hv = h(grid)
    scale = _grid_scale(grid, hv)
    C = normalizing_constant(hv)
    c = normalizing_constant(0.5 * (hv[:, None] + hv[None, :])) ** 2 / (C[:, None] * C[None, :])
    t, s = grid[:, None], grid[None, :]
    P = (t / s) ** hv[None, :]
    U = (np.abs(t - s) / t) ** hv[:, None]
    return c * 0.5 * (P + P.T - U * U.T), scale


def covariance_matrix(grid, h: HurstFunctional) -> CovarianceMatrix:
    """Assemble R_h = D rho D on a grid and verify positive semidefiniteness.

    R is rho times the outer product of t^{h(t)}, so exactly symmetric; its
    diagonal t^{2h(t)} must be normal floats.  The O(s^3) eigenvalue check
    outlasts the O(s^2) assembly only past s ~ 1000 (one BLAS thread); it
    compares min eigenvalue / s with -PSD_TOL * trace / s, which does not
    overflow where the trace would.
    The exact simulator factors rho without it, by Cholesky.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] <= 0 or grid[-1] > h.T + 1e-12:
        raise ValueError(f"grid must lie in (0, {h.T}]")
    _grid_scale(grid, h(grid), 2)
    rho, scale = _correlation_values(grid, h)
    R = rho * np.multiply.outer(scale, scale)
    min_eig = float(np.linalg.eigvalsh(R)[0])
    if min_eig / len(R) < -PSD_TOL * np.sum(np.diagonal(R) / len(R)):
        raise NumericalError(f"covariance not PSD: min eigenvalue {min_eig:g} below "
                             f"-{PSD_TOL:g} times the trace; invalid Hurst function?")
    return CovarianceMatrix(values=R, min_eigenvalue=min_eig)
