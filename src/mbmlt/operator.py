"""The fractional operator M_H, the h-weighted inner product, and covariances.

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
    "mh_apply",
    "h_inner_product",
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


def mh_apply(H: float, f, x: float, *, breaks=(), tail: float = None,
             tol: float = 1e-6) -> float:
    """(M_H f)(x) = gamma(H) int |y|^{H-3/2} f(x+y) dy by adaptive quadrature.

    The integrable singularity at y = 0 is handled with an algebraic-weight
    rule on [-1, 1]; the tails are truncated where |f| falls below 1e-14
    (or at ``tail`` if given).  ``breaks`` lists discontinuity points of f in
    the argument of f (useful for indicators).

    Raises NumericalError if the accumulated quadrature error estimate
    exceeds the tolerance.
    """
    from scipy.integrate import quad  # deferred: slow to import, used only here

    if not 0.5 < H < 1.0:
        raise ValueError(f"mh_apply requires H in (1/2,1), got {H}")
    gH = gamma_factor(H)
    alpha = H - 1.5  # exponent of the kernel |y|^alpha, in (-1, -1/2)
    delta = 1.0
    if tail is None:
        tail = _tail_cutoff(f, x)

    total = 0.0
    err = 0.0
    R = max(tail, delta + 1.0)

    # the two half-lines y > 0 (g = f(x + .)) and y < 0 (g = f(x - .)),
    # each with its own break positions in the y variable
    for g, ybreaks in (
        (lambda y: f(x + y), sorted(c - x for c in breaks)),
        (lambda y: f(x - y), sorted(x - c for c in breaks)),
    ):
        pts = sorted({0.0, delta, R} | {b for b in ybreaks if 0.0 < b < R})
        for a, b in zip(pts[:-1], pts[1:]):
            if a == 0.0:
                # keep the evaluation point away from y = 0: for y below the
                # rounding scale of x, x +/- y rounds back to x and a jump of
                # f at x would be sampled on the wrong side exactly where the
                # weight is most singular.  Clipping changes the integral only
                # at a null set for piecewise f and by O(floor) for smooth f.
                floor = 1e-12 * max(1.0, abs(x))
                v, e = quad(lambda y: g(max(y, floor)), a, b,
                            weight="alg", wvar=(alpha, 0.0))
            else:
                v, e = quad(lambda y: abs(y) ** alpha * g(y), a, b, limit=200)
            total += v
            err += e

    if err > tol * max(1.0, abs(total)):
        raise NumericalError(f"mh_apply quadrature error estimate {err:g} too large")
    return gH * total


def _tail_cutoff(f, x: float, floor: float = 1e-14, r_max: float = 1e6) -> float:
    """Radius beyond which |f(x +/- y)| stays below the floor (probe-based)."""
    r = 8.0
    while r < r_max:
        probes = np.linspace(r, 4 * r, 9)
        if all(abs(f(x + p)) < floor and abs(f(x - p)) < floor for p in probes):
            return r
        r *= 4.0
    return r_max


def h_inner_product(t: float, s: float, h: HurstFunctional) -> float:
    """Exact covariance R_h(t, s) of the process, in closed form.

    R_h(t,s) = C((h(t)+h(s))/2)^2 / (C(h(t)) C(h(s)))
               * (t^a + s^a - |t-s|^a) / 2,   a = h(t) + h(s).

    Symmetric by construction; R_h(t, t) = t^{2h(t)}.
    """
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    if t == 0.0 or s == 0.0:
        return 0.0
    ht = h(t)
    hs = h(s)
    a = ht + hs
    ratio = normalizing_constant(0.5 * a) ** 2 / (
        normalizing_constant(ht) * normalizing_constant(hs)
    )
    return ratio * 0.5 * (t ** a + s ** a - abs(t - s) ** a)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance of the process on a strictly increasing time grid."""

    grid: np.ndarray
    values: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])

    def to_csv(self, path) -> None:
        """Row/column headers are the grid times, 17 significant digits."""
        with open(path, "w") as fh:
            fh.write("t," + ",".join(f"{t:.17g}" for t in self.grid) + "\n")
            for ti, row in zip(self.grid, self.values):
                fh.write(f"{ti:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _covariance_values(grid: np.ndarray, h: HurstFunctional) -> np.ndarray:
    """R_h on a strictly increasing grid in (0, T], with no checks.

    All entries come from one broadcast of the h_inner_product formula over
    the grid (h evaluated once per grid point), so assembly is O(s^2) array
    work.  The expression is symmetric in (i, j) operation by operation, so
    the matrix is exactly symmetric.  h_inner_product is the scalar
    reference for each entry.
    """
    hv = h(grid)
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
    cov = CovarianceMatrix(grid=grid, values=R)
    min_eig = cov.min_eigenvalue()
    if min_eig < -PSD_TOL * np.trace(R):
        raise NumericalError(
            f"covariance not PSD: min eigenvalue {min_eig:g} "
            f"(tolerance {-PSD_TOL * np.trace(R):g}); invalid Hurst function?"
        )
    return cov
