"""Monte-Carlo local time at the origin, and its analytic expectation.

The regularized local time is the time integral of a Gaussian kernel of
width eps evaluated along the path:

    L_eps(T) = int_0^T (2 pi eps)^{-d/2} exp(-|B(t)|^2 / (2 eps)) dt.

Its expectation has the closed form int_0^T (2 pi (eps + t^{2h(t)}))^{-d/2} dt,
which stays finite as eps -> 0 only when d * sup h < 1 (the N = 0 case of the
truncation bound).  Removing the first chaos order (N = 1) subtracts exactly
this expectation, so the centered Monte-Carlo estimate has mean zero.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .simulate import MbmPathSet
from .specfun import HurstFunctional

__all__ = [
    "RegularizationParams",
    "LocalTimeEstimate",
    "delta_eps",
    "local_time_mc",
    "expected_local_time",
    "occupation_histogram",
]

#: expected_local_time returns once two successive panel counts agree to this
#: relative tolerance, and raises NumericalError after this many doublings
_EXPECTATION_RTOL = 1e-10
_EXPECTATION_DOUBLINGS = 8


@dataclass(frozen=True)
class RegularizationParams:
    """Gaussian width eps and truncation order N (0 or 1 for MC)."""

    eps: float
    N: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.N not in (0, 1):
            raise ValueError("Monte-Carlo estimation supports N in {0, 1} only")


@dataclass(frozen=True)
class LocalTimeEstimate:
    estimate: float
    stderr: float
    n_paths: int
    grid_points: int
    params: RegularizationParams

    def __post_init__(self):
        if not np.isfinite(self.estimate) or self.stderr < 0:
            raise NumericalError("invalid local-time estimate")


def delta_eps(x, eps: float, d: int = None):
    """Isotropic Gaussian kernel (2 pi eps)^{-d/2} exp(-|x|^2/(2 eps)).

    ``x`` is a d-vector or an array whose last axis is the d components.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d is None:
        d = x.shape[-1]
    sq = np.einsum("...j,...j->...", x, x)
    out = (2.0 * np.pi * eps) ** (-d / 2.0) * np.exp(-sq / (2.0 * eps))
    if out.ndim == 0:
        return float(out)
    return out


def local_time_mc(paths: MbmPathSet, params: RegularizationParams) -> LocalTimeEstimate:
    """Trapezoidal time integral of the Gaussian kernel along each path.

    Returns the mean over paths and its standard error.  For N = 1 the
    analytic expectation is subtracted, so the estimate is centered at 0.
    """
    cfg = paths.config
    h_min = float(np.min(cfg.h(np.linspace(0, cfg.T, 1001))))
    if params.eps < (cfg.T / cfg.s) ** (2 * h_min):
        warnings.warn(
            f"eps={params.eps:g} below the grid resolution scale "
            f"{(cfg.T / cfg.s) ** (2 * h_min):g}; estimate may be biased",
            stacklevel=2,
        )
    vals = paths.with_origin()  # (n, d, s+1), time 0 included
    dens = delta_eps(np.moveaxis(vals, 1, -1), params.eps)
    tgrid = np.concatenate([[0.0], cfg.grid])
    per_path = np.trapezoid(dens, tgrid, axis=1)
    if params.N == 1:
        per_path = per_path - expected_local_time(cfg.h, params.eps, cfg.T, cfg.d)
    n = len(per_path)
    return LocalTimeEstimate(
        estimate=float(np.mean(per_path)),
        stderr=float(np.std(per_path, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        n_paths=n,
        grid_points=cfg.s,
        params=params,
    )


def expected_local_time(h: HurstFunctional, eps: float, T: float, d: int) -> float:
    """E[L_eps(T)] = int_0^T (2 pi (eps + t^{2h(t)}))^{-d/2} dt.

    The phi = 0 S-transform, on the time rule of the chaos routes with no
    a(t) table; the panel count doubles from 48 until two successive values
    agree.  eps = 0 requires the N = 0 truncation bound d * sup h < 1
    (otherwise the integral diverges at t = 0: AdmissibilityError).
    """
    # deferred: local_time_mc at N = 0 never needs the time rule
    from .chaos import _TimeRule

    if d < 1 or T <= 0 or T > h.T + 1e-12:
        raise ValueError("bad dimension or horizon")
    val = np.nan
    for k in range(_EXPECTATION_DOUBLINGS + 1):
        prev, val = val, _TimeRule(h, T, 0, d, eps, n_panels=48 * 2 ** k).integral(1.0)
        if abs(val - prev) <= _EXPECTATION_RTOL * max(1.0, abs(val)):
            return val
    raise NumericalError(f"expected_local_time not converged: successive "
                         f"values differ by {abs(val - prev):g}")


def occupation_histogram(paths: MbmPathSet, bins) -> tuple[np.ndarray, np.ndarray]:
    """Time-weighted occupation density over spatial bins (1-d paths).

    Each grid time carries its trapezoidal weight; the histogram of path
    values with those weights, divided by bin width and averaged over paths,
    estimates the occupation density.  Summed times bin widths it recovers T
    when the bins cover the full path range.
    """
    cfg = paths.config
    if cfg.d != 1:
        raise ValueError("occupation histogram is defined for d = 1 paths")
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bins must be an increasing array of edges")
    vals = paths.with_origin()[:, 0, :]  # (n, s+1)
    if vals.size == 0:
        raise ValueError("empty path set")
    tgrid = np.concatenate([[0.0], cfg.grid])
    w = np.empty_like(tgrid)
    w[1:-1] = 0.5 * (tgrid[2:] - tgrid[:-2])
    w[0] = 0.5 * (tgrid[1] - tgrid[0])
    w[-1] = 0.5 * (tgrid[-1] - tgrid[-2])
    counts = np.zeros(len(edges) - 1)
    for row in vals:
        c, _ = np.histogram(row, bins=edges, weights=w)
        counts += c
    density = counts / (len(vals) * np.diff(edges))
    return edges, density
