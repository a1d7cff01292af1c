"""Independent numerical oracles used by the test suite.

Most of these are deliberately written against the defining integrals, not
the closed forms or the time rule under test: scipy adaptive quadrature,
Fourier-side integrals with oscillatory-weight rules, brute-force series,
and an exact-rational series for the truncated exponential.
Three are closed-form references term by term: h_inner_product, one entry
of R_h at a time, correlation_entry, one entry of its correlation at 40
digits, and chaos_term, one multi-index of the chaos pairing at a time, on
a given time rule.  local_time_mc_whole is the Monte-Carlo
reduction with every path held at once, and chaos_pairing_every_order the
chaos pairing with one time integral for every order up to n_max.
wood_chan_map is the Wood-Chan field as one explicit real matrix, whose
rows give the generator's exact covariance by a matrix product,
wood_chan_variance the diagonal of that covariance, and lagrange_weights
the Lagrange basis of its Hurst nodes in product form.
expected_local_time_hyp2f1 is the closed form of the expected local time
for constant h, at 30 digits.
"""
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma

from mbmlt.chaos import _a_table, _power_term, _TimeRule
from mbmlt.errors import NumericalError
from mbmlt.localtime import delta_eps, expected_local_time
from mbmlt.specfun import gamma_factor, normalizing_constant


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
    return sum(x ** n / math.factorial(n) for n in range(N, N + terms))


def exp_trunc_exact(N: int, x: float) -> Fraction:
    """sum_{n >= N} x^n / n! in exact rational arithmetic, for any N.

    Terms are added until they shrink by at least half per step and fall
    below 2^-80 of the sum, so the remainder is below 2^-79 of it.
    """
    x = Fraction(x)
    term = Fraction(1)
    for n in range(1, N + 1):
        term *= x / n
    total, n = term, N
    while term != 0 and (n <= 2 * abs(x) or abs(term) > abs(total) / 2 ** 80):
        n += 1
        term *= x / n
        total += term
    return total


def hermite_direct(k: int, x: float) -> float:
    """(2^k k! sqrt(pi))^{-1/2} H_k(x) exp(-x^2/2) via the physicists'
    polynomial from numpy (independent of the recurrence under test)."""
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


def expected_local_time_quad(h, eps: float, d: int) -> float:
    """int_0^{h.T} (2 pi (eps + t^{2h(t)}))^{-d/2} dt by adaptive quadrature."""

    def integrand(t):
        if t == 0.0:
            return 0.0 if eps == 0.0 else (2.0 * np.pi * eps) ** (-d / 2.0)
        return (2.0 * np.pi * (eps + t ** (2.0 * h(t)))) ** (-d / 2.0)

    val, err = quad(integrand, 0.0, h.T, limit=400, epsabs=1e-11, epsrel=1e-10)
    if err > 1e-8 * max(1.0, abs(val)):
        raise NumericalError(f"quadrature error {err:g} too large")
    return val


def local_time_mc_whole(paths, eps, N: int = 0):
    """local_time_mc with all paths zero-padded and reduced in one array:
    the trapezoid rule of delta_eps along each path, then the mean, its
    standard error and the target per eps."""
    cfg = paths.config
    n, d, s = paths.values.shape
    padded = np.zeros((n, d, s + 1))  # time 0 included: B(0) = 0
    padded[:, :, 1:] = paths.values
    x = np.moveaxis(padded, 1, -1)
    tgrid = np.concatenate([[0.0], cfg.grid])
    out = np.empty((3, len(eps)))
    for i, e in enumerate(eps):
        per_path = np.trapezoid(delta_eps(x, e), tgrid, axis=1)
        expected = expected_local_time(cfg.h, e, d)
        if N == 1:
            per_path = per_path - expected
        stderr = float(np.std(per_path, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out[:, i] = float(np.mean(per_path)), stderr, 0.0 if N == 1 else expected
    return tuple(out)


def expected_local_time_hyp2f1(H: float, T: float, eps: float, d: int) -> float:
    """E[L_eps(T)] for constant h = H in closed form, at 30 digits:

        int_0^T (2 pi (eps + t^{2H}))^{-d/2} dt
            = T (2 pi eps)^{-d/2} 2F1(d/2, 1/(2H); 1 + 1/(2H); -T^{2H} / eps),

    from int_0^1 (1 + z u^a)^{-b} du = 2F1(b, 1/a; 1 + 1/a; -z).  mpmath's
    exponent range is unbounded, so T^{2H} stays exact at T = 1e200.
    """
    import mpmath

    with mpmath.workdps(30):
        H, T, eps = map(mpmath.mpf, (H, T, eps))
        b, c = mpmath.mpf(d) / 2, 1 / (2 * H)
        return float(T * (2 * mpmath.pi * eps) ** -b
                     * mpmath.hyp2f1(b, c, 1 + c, -T ** (2 * H) / eps))


def h_inner_product(t: float, s: float, h) -> float:
    """Exact covariance R_h(t, s) of the process, one scalar entry:

    R_h(t,s) = C((h(t)+h(s))/2)^2 / (C(h(t)) C(h(s)))
               * (t^a + s^a - |t-s|^a) / 2,   a = h(t) + h(s).
    """
    ht = h(t)
    hs = h(s)
    a = ht + hs
    ratio = normalizing_constant(0.5 * a) ** 2 / (
        normalizing_constant(ht) * normalizing_constant(hs)
    )
    return ratio * 0.5 * (t ** a + s ** a - abs(t - s) ** a)


def correlation_entry(t: float, s: float, ht: float, hs: float) -> float:
    """The correlation R_h(t, s) / (t^{h(t)} s^{h(s)}) of one entry, with
    ht = h(t) and hs = h(s), at 40 significant digits from the form of R_h:

        C((ht+hs)/2)^2 / (C(ht) C(hs)) (t^a + s^a - |t-s|^a) / 2,   a = ht + hs,

    with C(x) = sqrt(2 pi / (Gamma(2x+1) sin(pi x))).  mpmath's exponent
    range is unbounded, so at T = 1e220 or 1e-300 no power leaves it.
    """
    import mpmath

    with mpmath.workdps(40):
        t, s, ht, hs = map(mpmath.mpf, (t, s, ht, hs))
        a = ht + hs
        C = [mpmath.sqrt(2 * mpmath.pi / (mpmath.gamma(2 * x + 1) * mpmath.sin(mpmath.pi * x)))
             for x in (a / 2, ht, hs)]
        R = C[0] ** 2 / (C[1] * C[2]) * (t ** a + s ** a - abs(t - s) ** a) / 2
        return float(R / (t ** ht * s ** hs))


def fgn_autocov(H: float, k: int) -> float:
    """The unit-spacing fGn autocovariance

        rho(k) = ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2

    at 40 significant digits, so the cancellation of its three powers,
    about 2 log10(k) digits, leaves the double exact.
    """
    import mpmath

    with mpmath.workdps(40):
        a, k = 2 * mpmath.mpf(H), mpmath.mpf(k)
        return float(((k + 1) ** a - 2 * k ** a + abs(k - 1) ** a) / 2)


def wood_chan_map(amps: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The real (s, 2M) matrix that maps the noise (Re zeta, Im zeta) of one
    path pair to its real path in the Wood-Chan field: per node k,

        Re y_k(u) = sum_j amps_k(j) (cos(2 pi j u / M) Re zeta_j
                                     + sin(2 pi j u / M) Im zeta_j),

    the real part of the DFT of amps_k * zeta, cumulated over u <= t and
    weighted by W[t, k], then summed over the nodes.  Each sine and cosine
    is taken directly, not by an FFT.  The noise entries are independent
    N(0, 1), so the covariance of the path is A @ A.T; the imaginary path
    has the same one.
    """
    (s, n), M = W.shape, amps.shape[1]
    angle = 2 * np.pi * (np.outer(np.arange(s), np.arange(M)) % M) / M
    basis = np.hstack([np.cos(angle), np.sin(angle)])
    return sum(W[:, k, None] * np.cumsum(basis * np.tile(amps[k], 2), axis=0)
               for k in range(n))


def wood_chan_variance(amps: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The variance at each time of the Wood-Chan field, the row sums of
    squares of wood_chan_map(amps, W), without the (s, 2M) matrix: the
    amplitudes scale its columns, so the map is the cumulated cosine and
    sine bases times (W @ amps)[t, j] in column j.
    """
    (s, _), M = W.shape, amps.shape[1]
    angle = 2 * np.pi * (np.outer(np.arange(s), np.arange(M)) % M) / M
    basis = np.cumsum(np.cos(angle), axis=0) ** 2 + np.cumsum(np.sin(angle), axis=0) ** 2
    return np.sum(basis * (W @ amps) ** 2, axis=1)


def lagrange_weights(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """W[t, k] = l_k(x_t), the Lagrange basis of the nodes in product form:
    an x_t equal to a node gives an exact one-hot row, with no division by 0,
    and one node gives a column of ones, the empty product."""
    W = np.empty((len(x), len(nodes)))
    for k, xk in enumerate(nodes):
        others = np.delete(nodes, k)
        W[:, k] = np.prod((x[:, None] - others) / (xk - others), axis=1)
    return W


def chaos_term(rule, a: np.ndarray, n_vec) -> float:
    """Pairing of the chaos kernel of index 2 n_vec with the matching phi
    tensor power, one multi-index:

        (-1/2)^n / n_vec! int base prod_j (a_j^2 / var)^{n_j} dt,

    on the nodes, weights, base and var of a time rule, with a the a(t)
    table on its nodes.  Each a_j^2 is grouped with a factor of var, since
    a_j^2/var stays bounded at the graded nodes near 0 where var alone is tiny.
    """
    n_vec = np.asarray(n_vec)
    prod = np.prod((a ** 2 / rule.var[:, None]) ** n_vec, axis=1)
    return ((-0.5) ** int(n_vec.sum()) / math.prod(map(math.factorial, n_vec))
            * float(np.sum(rule.weights * (rule.base * prod))))


def chaos_pairing_every_order(h, N: int, phi, n_max: int, eps: float) -> np.ndarray:
    """chaos_pairing with no early stop: one time integral for every order
    from N to n_max, also once every term has underflowed to 0."""
    rule = _TimeRule(h, N, phi.d, eps)
    x = -rule.exponent(_a_table(rule.nodes, rule.hvals, phi))
    sums = []
    with np.errstate(over="ignore"):
        term = _power_term(N, x)
        for n in range(N, n_max + 1):
            sums.append(rule.integral(term))
            term *= x / (n + 1)
    return np.cumsum(sums)
