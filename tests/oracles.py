"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against the defining integrals, not
the closed forms or the time rule under test: scipy adaptive quadrature,
Fourier-side integrals with oscillatory-weight rules, and brute-force series.
"""
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma

from mbmlt.errors import NumericalError
from mbmlt.specfun import gamma_factor


def norm_const(x: float) -> float:
    return np.sqrt(2 * np.pi / (sp_gamma(2 * x + 1) * np.sin(np.pi * x)))


def isometry_quadrature(kernel, t: float) -> float:
    """int kernel(u)^2 du with splits at the kink points 0 and t."""
    total = 0.0
    for a, b in [(-np.inf, 0.0), (0.0, t), (t, np.inf)]:
        v, _ = quad(lambda u: kernel(u) ** 2, a, b, limit=400)
        total += v
    return total


def fourier_inner_product(t: float, s: float, ht: float, hs: float) -> float:
    """Weighted-Fourier bilinear form of the two indicators.

    2/(C(ht) C(hs)) int_0^inf [cos((t-s)x) - cos(tx) - cos(sx) + 1]
                              x^{-1-a} dx,  a = ht + hs,
    with the oscillatory tail handled by QUADPACK's cosine-weight rule.
    """
    a = ht + hs

    def near(x):
        return (np.cos((t - s) * x) - np.cos(t * x) - np.cos(s * x) + 1) * x ** (-1 - a)

    total, _ = quad(near, 0.0, 1.0, limit=400)
    total += 1.0 / a  # the constant term over [1, inf)
    for w, sign in [(t - s, 1.0), (t, -1.0), (s, -1.0)]:
        if w == 0.0:
            total += sign / a
        else:
            v, _ = quad(lambda x: x ** (-1 - a), 1.0, np.inf,
                        weight="cos", wvar=abs(w))
            total += sign * v
    return 2.0 * total / (norm_const(ht) * norm_const(hs))


def exp_tail_series(N: int, x: float, terms: int = 50) -> float:
    """sum_{n=N}^{N+terms} x^n / n! by direct accumulation."""
    import math

    return sum(x ** n / math.factorial(n) for n in range(N, N + terms))


def hermite_direct(k: int, x: float) -> float:
    """(2^k k! sqrt(pi))^{-1/2} H_k(x) exp(-x^2/2) via the physicists'
    polynomial from numpy (independent of the recurrence under test)."""
    import math

    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    Hk = np.polynomial.hermite.hermval(x, coeffs)
    return Hk * np.exp(-0.5 * x * x) / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))


def gauss_hermite_inner(j: int, k: int, hermite_function, n_nodes: int = 40) -> float:
    """int h_j h_k dx by Gauss-Hermite quadrature (weight e^{-x^2} removed).

    Exact for j + k < 2 n_nodes; keep n_nodes moderate so e^{x^2} at the
    outermost node stays within double range.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    vals = hermite_function(j, nodes) * hermite_function(k, nodes) * np.exp(nodes ** 2)
    return float(np.sum(weights * vals))


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


def expected_local_time_quad(h, eps: float, T: float, d: int) -> float:
    """int_0^T (2 pi (eps + t^{2h(t)}))^{-d/2} dt by adaptive quadrature."""

    def integrand(t):
        if t == 0.0:
            return 0.0 if eps == 0.0 else (2.0 * np.pi * eps) ** (-d / 2.0)
        return (2.0 * np.pi * (eps + t ** (2.0 * h(t)))) ** (-d / 2.0)

    val, err = quad(integrand, 0.0, T, limit=400, epsabs=1e-11, epsrel=1e-10)
    if err > 1e-8 * max(1.0, abs(val)):
        raise NumericalError(f"quadrature error {err:g} too large")
    return val
