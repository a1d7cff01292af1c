"""Special constants, Hermite functions, and the Hurst parameter function.

The constants C(x) and gamma(H) need Gamma only on [1, 3], where _gamma_1_3
evaluates it as one numpy expression, so no special-function library is
imported.

The Hurst function h maps [0, T] into (1/2, 1) and controls the pathwise
regularity of the process at each time.  Admissibility is checked on a dense
grid: the range condition (called A1 below) and, for truncated unregularized
local times, the truncation bound sup h < (1+2N)/(2N+d), whose right-hand
side truncation_bound gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AdmissibilityError

__all__ = [
    "normalizing_constant",
    "gamma_factor",
    "hermite_function",
    "HurstFunctional",
    "truncation_bound",
    "require_truncation_bound",
    "minimal_truncation",
]

#: grid size used for range/continuity validation of a Hurst function
VALIDATION_GRID = 10_001


#: Gamma(2 + t) on t in [0, 1] as a degree-16 polynomial, highest power
#: first: the interpolant at the 17 Chebyshev extrema of [0, 1], solved at 60
#: digits and rounded.  Its own error is 2e-17, and it is exact at t = 0, 1.
_GAMMA_2_3 = (
    2.0596536908194426e-07, -2.15901011836126e-06, 1.1079181528145428e-05,
    -3.78166745572724e-05, 0.00010038021777040517, -0.00022569473640002993,
    0.0004820198415234712, -0.0009160847522835695, 0.0021028429791745966,
    -0.0028523954349495197, 0.011154004687881922, -0.00026697747478278535,
    0.0742490104245834, 0.0815769192606151, 0.41184033042617674,
    0.4227843350984687, 1.0,
)


def _gamma_1_3(x: np.ndarray) -> np.ndarray:
    """Gamma(x) for x in [1, 3]; its largest relative error against a
    60-digit Gamma, on 38k points of [1, 3], is 2.2e-16.

    The polynomial gives [2, 3]; [1, 2) uses Gamma(x) = Gamma(x+1) / x.  The
    shifts x - 1 and x - 2 are exact, so no argument is rounded.
    """
    low = x < 2.0
    return np.polyval(_GAMMA_2_3, x - np.where(low, 1.0, 2.0)) / np.where(low, x, 1.0)


def normalizing_constant(x):
    """C(x) = sqrt(2 pi / (Gamma(2x+1) sin(pi x))), defined for x in (0, 1).

    Accepts scalars or arrays; every entry must lie in (0, 1).
    """
    x = np.asarray(x, dtype=float)
    inside = (0.0 < x) & (x < 1.0)
    if not np.all(inside):
        raise ValueError(
            f"normalizing constant requires x in (0,1), got {x[~inside].flat[0]}"
        )
    out = np.sqrt(2.0 * np.pi / (_gamma_1_3(2.0 * x + 1.0) * np.sin(np.pi * x)))
    if out.ndim == 0:
        return float(out)
    return out


def gamma_factor(H):
    """Convolution-kernel constant gamma(H) for the fractional operator.

    gamma(H) = sqrt(Gamma(2H+1) sin(pi H)) / (2 Gamma(H-1/2) cos(pi (H-1/2)/2)),
    defined for H in (1/2, 1); it vanishes as H -> 1/2+ (Gamma pole in the
    denominator).  Gamma(H-1/2) is taken as Gamma(H+1/2) / (H-1/2), so the
    pole is exact.  Accepts scalars or arrays; every entry must lie in (1/2, 1).
    """
    H = np.asarray(H, dtype=float)
    inside = (0.5 < H) & (H < 1.0)
    if not np.all(inside):
        raise ValueError(f"gamma_factor requires H in (1/2,1), got {H[~inside].flat[0]}")
    num = np.sqrt(_gamma_1_3(2.0 * H + 1.0) * np.sin(np.pi * H)) * (H - 0.5)
    den = 2.0 * _gamma_1_3(H + 0.5) * np.cos(np.pi * (H - 0.5) / 2.0)
    out = num / den
    if out.ndim == 0:
        return float(out)
    return out


def hermite_function(k: int, x):
    """L2-orthonormal Hermite function h_k(x), by the stable recurrence.

    h_0(x) = pi^{-1/4} exp(-x^2/2),
    h_{k+1}(x) = sqrt(2/(k+1)) x h_k(x) - sqrt(k/(k+1)) h_{k-1}(x).

    Accepts scalars or arrays; returns 0 where the Gaussian factor underflows.
    """
    _whole_number(k, "k", 0)
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        h_prev = np.zeros_like(x)
        h_cur = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
        for j in range(k):
            h_next = math.sqrt(2.0 / (j + 1)) * x * h_cur - math.sqrt(j / (j + 1)) * h_prev
            h_prev, h_cur = h_cur, h_next
    if h_cur.ndim == 0:
        return float(h_cur)
    return h_cur


@dataclass(frozen=True)
class HurstFunctional:
    """The parameter function h: [0, T] -> (1/2, 1).

    Instances are validated on construction: the range condition is checked
    on a dense grid together with all later user-requested points, and a
    two-resolution continuity check guards against wildly discontinuous
    callables.

    ``eval`` maps an array of times to an array of the same shape, as one
    numpy expression; a scalar-only callable fails on the validation grid.
    """

    T: float
    eval: Callable[[np.ndarray], np.ndarray]
    _sup: float = field(init=False, repr=False, default=float("nan"))

    def __post_init__(self):
        if not 0 < self.T < math.inf:  # NaN fails too
            raise ValueError(f"time horizon must be positive and finite, got {self.T}")
        grid = np.linspace(0.0, self.T, VALIDATION_GRID)
        vals = self(grid)  # the range check
        # continuity proxy: max jump must shrink when the grid is refined
        coarse = np.max(np.abs(np.diff(vals[::2])))
        fine = np.max(np.abs(np.diff(vals)))
        if coarse > 1e-12 and fine > 0.75 * coarse:
            raise AdmissibilityError(
                "A1 violated: h does not look continuous (grid refinement "
                f"does not shrink jumps: {coarse:g} -> {fine:g})"
            )
        object.__setattr__(self, "_sup", float(np.max(vals)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.T + 1e-12):
            raise ValueError(f"t outside [0, {self.T}]")
        out = np.asarray(self.eval(t), dtype=float)
        if out.shape != t.shape:
            raise ValueError(f"eval must map an array of times to an array of the "
                             f"same shape: shape {t.shape} gave {out.shape}")
        inside = (out > 0.5) & (out < 1.0)  # NaN is outside
        if not inside.all():
            raise AdmissibilityError(f"A1 violated: h({t[~inside].flat[0]:g}) = "
                                     f"{out[~inside].flat[0]:g} outside (1/2, 1)")
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def sup(self) -> float:
        """Supremum of h over the validation grid."""
        return self._sup

    # -- standard parametrizations -------------------------------------------

    @classmethod
    def constant(cls, H: float, T: float = 1.0) -> "HurstFunctional":
        return cls(T=T, eval=lambda t: np.full(np.shape(t), H))

    @classmethod
    def linear(cls, a: float, b: float, T: float = 1.0) -> "HurstFunctional":
        return cls(T=T, eval=lambda t: a + b * t)

    @classmethod
    def sinusoidal(cls, a: float, b: float, omega: float, T: float = 1.0) -> "HurstFunctional":
        return cls(T=T, eval=lambda t: a + b * np.sin(omega * t))

    @classmethod
    def from_config(cls, spec: dict, T: float = 1.0) -> "HurstFunctional":
        """Parse {"const": H} | {"linear": {"a","b"}} | {"sin": {"a","b","omega"}}.

        Every parameter is required, and any other key is a ValueError.
        """
        if not isinstance(spec, dict) or len(spec) != 1:
            raise ValueError(f"bad hurst spec: {spec!r}")
        kind, params = next(iter(spec.items()))
        if kind == "const":
            return cls.constant(_real(params, "hurst const"), T=T)
        names = {"linear": ("a", "b"), "sin": ("a", "b", "omega")}.get(kind)
        if names is None:
            raise ValueError(f"unknown hurst spec kind {kind!r}")
        params = _config_keys(params, names, f"hurst {kind}")
        args = [_real(params[k], f"hurst {kind} {k}") for k in names]
        if kind == "linear":
            return cls.linear(*args, T=T)
        return cls.sinusoidal(*args, T=T)


def _real(value, name: str) -> float:
    """value as a float; ValueError unless it is a number, so a JSON true is
    not read as 1.0.  Config parsers read every real-valued entry with it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _whole_number(value, name: str, least: int) -> None:
    """Raise a ValueError that names value unless it is an int or numpy integer
    >= least, so neither 1.5 nor True counts: the library's one count rule."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")


def _config_keys(spec, allowed, name: str) -> dict:
    """spec, if it is a JSON object whose keys all lie in allowed; otherwise
    a ValueError that names the unknown keys."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {name} keys: {unknown}")
    return spec


def _config_list(value, name: str) -> list:
    """value, if it is a JSON array; otherwise a ValueError that names it."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a JSON array, got {value!r}")
    return value


def truncation_bound(N: int, d: int) -> float:
    """The admissible supremum (1+2N)/(2N+d) of h for truncation order N in
    dimension d."""
    _whole_number(N, "N", 0)
    _whole_number(d, "d", 1)
    return (1.0 + 2.0 * N) / (2.0 * N + d)


def minimal_truncation(h: HurstFunctional, d: int) -> int:
    """Smallest N with sup h < (1+2N)/(2N+d).

    The bound increases to 1 as N grows, and sup h < 1, so a solution always
    exists for d >= 1.  In exact arithmetic it is the smallest integer
    N >= 0 above (d sup h - 1) / (2 (1 - sup h)).
    """
    def admits(N: int) -> bool:
        return h.sup < truncation_bound(N, d)

    # Rounding, in the formula and in the bound, can move the first N that
    # the floating-point test admits off this candidate: by one for moderate
    # N, by far more when sup h is within ~1e-8 of 1.  So the candidate only
    # starts a search: double until admitted, then bisect (lo is rejected).
    lo = -1
    hi = max(0, math.floor((d * h.sup - 1.0) / (2.0 * (1.0 - h.sup))) + 1)
    while not admits(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if admits(mid) else (mid, hi)
    return hi


def require_truncation_bound(h: HurstFunctional, N: int, d: int) -> None:
    """Raise AdmissibilityError unless sup h < (1+2N)/(2N+d).

    Without regularization the order-N-truncated local time, and each of its
    chaos kernels, exists only under this bound.
    """
    bound = truncation_bound(N, d)
    if h.sup >= bound:
        raise AdmissibilityError(
            f"truncation bound fails: sup h = {h.sup:g} >= bound {bound:g} "
            f"for N={N}, d={d}; minimal N = {minimal_truncation(h, d)}"
        )
