"""Monte-Carlo local time at the origin, and its analytic expectation.

The regularized local time is the time integral of a Gaussian kernel of
width eps evaluated along the path:

    L_eps(T) = int_0^T (2 pi eps)^{-d/2} exp(-|B(t)|^2 / (2 eps)) dt.

Its expectation has the closed form int_0^T (2 pi (eps + t^{2h(t)}))^{-d/2} dt,
which stays finite as eps -> 0 only when d * sup h < 1 (the N = 0 case of the
truncation bound).  local_time_mc estimates L_eps for a list of eps from one
path set, each with the value it should average to: this expectation for
N = 0, and 0 for N = 1, which subtracts the expectation (the first chaos
order) path by path.
"""
from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .simulate import _BLOCK_BYTES, MbmPathSet
from .specfun import HurstFunctional, _eps, _whole_number

__all__ = [
    "delta_eps",
    "local_time_mc",
    "expected_local_time",
]

#: expected_local_time returns once two successive panel counts agree to this
#: relative tolerance, and raises NumericalError after this many doublings
_EXPECTATION_RTOL = 1e-10
_EXPECTATION_DOUBLINGS = 8


def _check_mc_args(eps: Sequence[float], N: int) -> None:
    """Raise ValueError unless eps passes the eps rule and N is 0 or 1."""
    _eps(eps)
    _whole_number(N, "N", 0)
    if N > 1:
        raise ValueError("Monte-Carlo estimation supports N in {0, 1} only")


def delta_eps(x, eps: float):
    """Isotropic Gaussian kernel (2 pi eps)^{-d/2} exp(-|x|^2/(2 eps)).

    ``x`` is a d-vector or an array whose last axis is the d components;
    ``eps`` is a finite real > 0, not a bool or a string, else a ValueError.
    Where |x|^2 / (2 eps) passes the floats the kernel is exactly 0.
    """
    _eps([eps])
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.shape[-1]
    with np.errstate(over="ignore"):  # an infinite exponent gives exp(-inf) = 0
        kernel = np.exp(-np.einsum("...j,...j->...", x, x) / (2.0 * eps))
    out = (2.0 * np.pi * eps) ** (-d / 2.0) * kernel
    if out.ndim == 0:
        return float(out)
    return out


def local_time_mc(paths: MbmPathSet, eps: Sequence[float], N: int = 0):
    """Trapezoidal time integral of the Gaussian kernel along each path.

    ``eps`` is a nonempty sequence of widths, each a finite real > 0 and not
    a bool or a string.  Returns three arrays, one entry per eps: the mean
    over paths, its standard error, and the value the mean should be near:
    E[L_eps(T)] for N = 0, and 0 for N = 1, where that expectation is
    subtracted from every path.  The arguments are checked first; an eps
    below the grid resolution scale is warned about.  Paths are reduced in
    blocks through one buffer of about _BLOCK_BYTES, so working memory
    beyond the (len(eps), n_paths) per-path values does not grow with the
    path set.
    """
    _check_mc_args(eps, N)
    cfg = paths.config
    n, d, s = paths.values.shape
    # first: a t^{2h(t)} past the floats raises before the floor or any path work
    expected = [expected_local_time(cfg.h, e, d) for e in eps]
    T = cfg.h.T
    floor = (T / cfg.s) ** (2 * float(np.min(cfg.h(np.linspace(0, T, 1001)))))
    for e in eps:
        if e < floor:
            warnings.warn(f"eps={e:g} below the grid resolution scale {floor:g}; "
                          "estimate may be biased", stacklevel=2)
    nb = min(n, max(1, _BLOCK_BYTES // (8 * d * (s + 1))))  # paths per block
    padded = np.zeros((nb, d, s + 1))  # time 0 included: B(0) = 0
    tgrid = np.concatenate([[0.0], cfg.grid])
    per_path = np.empty((len(eps), n))
    for a in range(0, n, nb):
        block = padded[:min(nb, n - a)]
        block[:, :, 1:] = paths.values[a:a + nb]
        x = np.moveaxis(block, 1, -1)
        for i, e in enumerate(eps):
            per_path[i, a:a + nb] = np.trapezoid(delta_eps(x, e), tgrid, axis=1)
    out = np.empty((3, len(eps)))
    for i, expect in enumerate(expected):
        if N == 1:
            per_path[i] -= expect
        estimate = float(np.mean(per_path[i]))
        # in units of T, so the squares stay in the floats up to T = 1e250
        stderr = float(np.std(per_path[i] / T, ddof=1) * T / np.sqrt(n)) if n > 1 else 0.0
        if not np.isfinite(estimate) or stderr < 0:
            raise NumericalError("invalid local-time estimate")
        out[:, i] = estimate, stderr, 0.0 if N == 1 else expect
    return tuple(out)


def expected_local_time(h: HurstFunctional, eps: float, d: int) -> float:
    """E[L_eps(T)] = int_0^T (2 pi (eps + t^{2h(t)}))^{-d/2} dt, T = h.T.

    The phi = 0 S-transform, on the time rule of the chaos routes with no
    a(t) table; the panel count doubles from 48 until two successive values
    agree.  eps = 0 requires the N = 0 truncation bound d * sup h < 1
    (otherwise the integral diverges at t = 0: AdmissibilityError); the
    rule checks that bound and the other arguments.
    """
    # deferred: importing localtime does not load the analytic routes
    from .chaos import _TimeRule

    val = np.nan
    for k in range(_EXPECTATION_DOUBLINGS + 1):
        prev, val = val, _TimeRule(h, 0, d, eps, n_panels=48 * 2 ** k).integral(1.0)
        if abs(val - prev) <= _EXPECTATION_RTOL * max(1.0, abs(val)):
            return val
    raise NumericalError(f"expected_local_time not converged: successive "
                         f"values differ by {abs(val - prev):g}")
